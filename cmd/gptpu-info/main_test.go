package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// runbookRow matches a row of README's metrics runbook table and
// captures the family name (labels, if any, follow it in braces).
var runbookRow = regexp.MustCompile("^\\| `(gptpu_[a-z0-9_]+)")

// TestRunbookMatchesCatalog holds README's metrics runbook to the live
// catalog in both directions: a family registered without a row fails,
// and so does a row whose family is no longer registered.
func TestRunbookMatchesCatalog(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(readme), "\n") {
		if m := runbookRow.FindStringSubmatch(line); m != nil {
			if rows[m[1]] {
				t.Errorf("runbook lists %s twice", m[1])
			}
			rows[m[1]] = true
		}
	}
	live := make(map[string]bool)
	for _, d := range catalog() {
		live[d.Name] = true
		if !rows[d.Name] {
			t.Errorf("%s is exported but has no runbook row in README.md", d.Name)
		}
	}
	for name := range rows {
		if !live[name] {
			t.Errorf("README.md's runbook lists %s, which nothing exports", name)
		}
	}
}
