package gptpu

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The source rules read the repository's own text: Go files through
// go/parser and go/ast (the module cache is empty, so nothing beyond
// the standard library), the Makefile, the scripts and the two main
// documents as plain text. Each rule has a seeded violation below that
// it must report, so a rule that silently matches nothing fails too.

// settingTypes are the configuration structs whose every exported
// field must be set by a caller outside the declaring package: a field
// nothing sets is either dead or single-valued, and becomes a constant.
var settingTypes = []string{
	"repro/internal/core.Config",
	"repro/internal/server.Config",
	"repro/internal/cluster.Config",
	"repro/internal/obs.Config",
	"repro/internal/server.RetryPolicy",
}

// deletedFlags are command flags that were removed; no script, make
// target or document may offer them again.
var deletedFlags = []string{
	"-batch-window", "-pace", "-affinity-cap", "-dead-strikes",
	"-probe-timeout", "-batch-max", "-nowire",
}

// poolOwners are the only non-test sync.Pools outside internal/tensor's
// one buffer recycler, keyed by file and the name the pool is declared
// under. Both recycle objects, not buffers.
var poolOwners = map[[2]string]string{
	{"internal/core/context.go", "plans"}:               "per-context instruction-plan storage",
	{"internal/edgetpu/ops_fast.go", "gemmScratchPool"}: "the GEMM kernel's scratch structs",
}

// sourceRules are the rules TestSourceRules applies, each returning
// one line per violation.
var sourceRules = []struct {
	name  string
	check func(*source) []string
}{
	{"settings", func(s *source) []string { return unsetSettings(s, settingTypes) }},
	{"deleted-flags", deletedFlagMentions},
	{"core-escape", coreEscapes},
	{"http-mux", muxOutsideTelemetry},
	{"sync-pool", strayPools},
}

// seededViolations gives each rule a small source tree it must reject.
var seededViolations = map[string]map[string]string{
	"settings": {
		"internal/core/context.go":    "package core\ntype Config struct{}",
		"internal/server/server.go":   "package server\ntype Config struct{}\ntype RetryPolicy struct{}",
		"internal/cluster/cluster.go": "package cluster\ntype Config struct{}",
		"internal/obs/recorder.go": `package obs
type Config struct {
	Capacity int // set by a literal in cmd/
	Window   int // set by an assignment in cmd/
	Alias    int // set through an alias's literal
	Inside   int // set only inside package obs
	TestOnly int // set only by a test and an example
}
var _ = Config{Inside: 1}`,
		"api.go": `package gptpu
import "repro/internal/obs"
type ObsConfig = obs.Config`,
		"cmd/x/main.go": `package main
import (
	gptpu "repro"
	"repro/internal/obs"
)
var _ = &obs.Config{Capacity: 1}
var _ = gptpu.ObsConfig{Alias: 1}
func tune(cfg obs.Config) { cfg.Window = 2 }`,
		"cmd/x/main_test.go": `package main
import "repro/internal/obs"
var _ = obs.Config{TestOnly: 1}`,
		"examples/y/main.go": `package main
import "repro/internal/obs"
var _ = obs.Config{TestOnly: 1}`,
	},
	"deleted-flags": {
		"scripts/x.sh":  "gptpu-serve -addr :0 -batch-max 4\n",
		"README.md":     "run `gptpu-router -dead-strikes 3`\n",
		"DESIGN.md":     "the removed `-pace` flag\n",
		"Makefile":      "\tgo run ./cmd/gptpu-fuzz -nowire\n",
		"doc/other.md":  "-pace in a file the rule does not read\n",
		"scripts/ok.sh": "gptpu-serve -addr :0 -max-inflight 4\n",
	},
	"core-escape": {
		"cmd/x/main.go": `package main
type ctx interface{ Core() int }
func a(c ctx) int { return c.Core() }
func b(c ctx) func() int { return c.Core }`,
		"internal/x/x_test.go": `package x
// a test calling .Core() counts too
func f() {}`,
		"benchmark/main.go": `package main
type ctx interface{ Core() int }
func a(c ctx) int { return c.Core() }`,
	},
	"http-mux": {
		"cmd/x/main.go": `package main
import web "net/http"
var m = web.NewServeMux()`,
		"internal/telemetry/export.go": `package telemetry
import "net/http"
var m = http.NewServeMux()`,
	},
	"sync-pool": {
		"internal/server/x.go": `package server
import "sync"
var bufs sync.Pool`,
		"internal/core/context.go": `package core
import "sync"
type Context struct {
	plans sync.Pool
	spare sync.Pool
}`,
		"internal/tensor/pool.go": `package tensor
import "sync"
var p sync.Pool`,
		"internal/server/x_test.go": `package server
import "sync"
var p sync.Pool`,
	},
}

// seededWant is, per rule, the substrings its seeded tree's violations
// must carry, one violation each.
var seededWant = map[string][]string{
	"settings":      {"obs.Config.Inside", "obs.Config.TestOnly"},
	"deleted-flags": {"DESIGN.md: -pace", "Makefile: -nowire", "README.md: -dead-strikes", "scripts/x.sh: -batch-max"},
	"core-escape":   {"cmd/x/main.go:3", "cmd/x/main.go:4", "internal/x/x_test.go:2"},
	"http-mux":      {"cmd/x/main.go:3"},
	"sync-pool":     {"internal/core/context.go:5", "internal/server/x.go:3"},
}

func TestSourceRules(t *testing.T) {
	repo := newSource(t, readRepo(t))
	for _, r := range sourceRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(repo) {
				t.Error(v)
			}
			got := r.check(newSource(t, seededViolations[r.name]))
			want := seededWant[r.name]
			if len(got) != len(want) {
				t.Fatalf("seeded violations: got %d reports %q, want %d naming %q", len(got), got, len(want), want)
			}
			for i, w := range want {
				if !strings.Contains(got[i], w) {
					t.Errorf("seeded violation %d: got %q, want it to name %q", i, got[i], w)
				}
			}
		})
	}
}

// source is a repository snapshot: its parsed Go files and the plain
// text of everything else the rules read.
type source struct {
	fset  *token.FileSet
	files []*goFile          // sorted by path
	text  map[string]string  // repo-relative slash path → contents
	names map[string]string  // import path → package name
	alias map[string]string  // "pkg.Name" of a type alias → "pkg.Name" it aliases
	decls map[string]*goFile // "pkg.Name" of a struct type → its file
}

// goFile is one parsed Go file.
type goFile struct {
	rel  string // repo-relative slash path
	pkg  string // import path of its package
	test bool
	f    *ast.File
	imp  map[string]string // local import name → path
}

// readRepo reads every Go file of the repository (the benchmark module
// included, hidden directories excluded) and the files the text rules
// check.
func readRepo(t *testing.T) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() || !(strings.HasSuffix(rel, ".go") || textChecked(rel)) {
			return nil
		}
		b, err := os.ReadFile(p)
		files[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// textChecked reports whether the deleted-flags rule reads rel.
func textChecked(rel string) bool {
	switch rel {
	case "Makefile", "README.md", "DESIGN.md":
		return true
	}
	return path.Dir(rel) == "scripts" && strings.HasSuffix(rel, ".sh")
}

// newSource parses the Go files among files, keyed by repo-relative
// path, and indexes their packages, type aliases and struct types.
func newSource(t *testing.T, files map[string]string) *source {
	t.Helper()
	s := &source{
		fset: token.NewFileSet(), text: files, names: map[string]string{},
		alias: map[string]string{}, decls: map[string]*goFile{},
	}
	for rel, src := range files {
		if !strings.HasSuffix(rel, ".go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, rel, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg := "repro"
		if dir := path.Dir(rel); dir != "." {
			pkg += "/" + dir
		}
		test := strings.HasSuffix(rel, "_test.go")
		s.files = append(s.files, &goFile{rel: rel, pkg: pkg, test: test, f: f})
		if !test {
			s.names[pkg] = f.Name.Name
		}
	}
	sort.Slice(s.files, func(i, j int) bool { return s.files[i].rel < s.files[j].rel })
	for _, gf := range s.files {
		gf.imp = make(map[string]string)
		for _, im := range gf.f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name, ok := s.names[p]
			if !ok {
				name = path.Base(p)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			gf.imp[name] = p
		}
	}
	for _, gf := range s.files {
		if gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name := gf.pkg + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					s.alias[name] = s.typeOf(gf, ts.Type)
				} else if _, ok := ts.Type.(*ast.StructType); ok {
					s.decls[name] = gf
				}
			}
		}
	}
	return s
}

// typeOf resolves a type expression in gf to "pkg.Name", through
// pointers and aliases ("" for anything else).
func (s *source) typeOf(gf *goFile, e ast.Expr) string {
	var name string
	switch e := e.(type) {
	case *ast.StarExpr:
		return s.typeOf(gf, e.X)
	case *ast.Ident:
		name = gf.pkg + "." + e.Name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		if !ok {
			return ""
		}
		p, ok := gf.imp[x.Name]
		if !ok {
			return ""
		}
		name = p + "." + e.Sel.Name
	default:
		return ""
	}
	for s.alias[name] != "" {
		name = s.alias[name]
	}
	return name
}

// pos renders n's position as "file:line".
func (s *source) pos(n ast.Node) string {
	p := s.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// unsetSettings reports every exported field of the types that no
// non-test Go outside the declaring package and examples/ sets, by a
// keyed composite literal or by assigning to a variable of the type.
func unsetSettings(s *source, types []string) []string {
	set := make(map[string]bool) // "pkg.Type.Field"
	for _, gf := range s.files {
		if gf.test || strings.HasPrefix(gf.rel, "examples/") {
			continue
		}
		mark := func(typ, field string) {
			if !strings.HasPrefix(typ, gf.pkg+".") {
				set[typ+"."+field] = true
			}
		}
		for _, d := range gf.f.Decls {
			// vars holds the names declared in d with a struct type:
			// parameters, var declarations and := of a literal.
			vars := make(map[string]string)
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					for _, id := range n.Names {
						vars[id.Name] = s.typeOf(gf, n.Type)
					}
				case *ast.ValueSpec:
					for _, id := range n.Names {
						vars[id.Name] = s.typeOf(gf, n.Type)
					}
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					for i, rhs := range n.Rhs {
						if u, ok := rhs.(*ast.UnaryExpr); ok {
							rhs = u.X
						}
						lit, isLit := rhs.(*ast.CompositeLit)
						if id, ok := n.Lhs[i].(*ast.Ident); ok && isLit {
							vars[id.Name] = s.typeOf(gf, lit.Type)
						}
					}
				case *ast.CompositeLit:
					typ := s.typeOf(gf, n.Type)
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && typ != "" {
								mark(typ, key.Name)
							}
						}
					}
				}
				return true
			})
			ast.Inspect(d, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
								mark(vars[x.Name], sel.Sel.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	for _, typ := range types {
		gf := s.decls[typ]
		if gf == nil {
			out = append(out, fmt.Sprintf("settings: struct type %s not found", typ))
			continue
		}
		short := path.Base(typ)
		ast.Inspect(gf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || gf.pkg+"."+ts.Name.Name != typ {
				return true
			}
			for _, fld := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range fld.Names {
					if id.IsExported() && !set[typ+"."+id.Name] {
						out = append(out, fmt.Sprintf("%s: %s.%s is set by no caller outside its package (delete it or make it a constant)",
							s.pos(id), short, id.Name))
					}
				}
			}
			return false
		})
	}
	return out
}

// deletedFlagMentions reports each deleted flag the Makefile, the
// scripts, README.md or DESIGN.md still name.
func deletedFlagMentions(s *source) []string {
	var rels []string
	for rel := range s.text {
		if textChecked(rel) {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	var out []string
	for _, rel := range rels {
		for _, flag := range deletedFlags {
			if mentionsFlag(s.text[rel], flag) {
				out = append(out, fmt.Sprintf("%s: %s names the deleted flag", rel, flag))
			}
		}
	}
	return out
}

// mentionsFlag reports whether text names flag: the flag followed by
// anything but a letter, digit, hyphen or underscore, so -pace does not
// match -paced but does match -pace=1.
func mentionsFlag(text, flag string) bool {
	for {
		i := strings.Index(text, flag)
		if i < 0 {
			return false
		}
		text = text[i+len(flag):]
		if text == "" || !isFlagChar(text[0]) {
			return true
		}
	}
}

func isFlagChar(c byte) bool {
	return c == '-' || c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// coreEscapes reports any use of a Core method (call or method value),
// or a comment naming such a call, outside benchmark/: the public
// Context is the runtime's own, so only the frozen benchmark reaches
// through it.
func coreEscapes(s *source) []string {
	var out []string
	for _, gf := range s.files {
		if strings.HasPrefix(gf.rel, "benchmark/") {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Core" {
				out = append(out, s.pos(sel)+": Core() escapes outside benchmark/")
			}
			return true
		})
		out = append(out, s.commentHits(gf, ".Core()")...)
	}
	return out
}

// muxOutsideTelemetry reports any net/http ServeMux (or a comment
// naming its constructor) outside internal/telemetry and benchmark/:
// commands mount their one metrics listener through telemetry.Listen.
func muxOutsideTelemetry(s *source) []string {
	var out []string
	for _, gf := range s.files {
		if strings.HasPrefix(gf.rel, "internal/telemetry/") || strings.HasPrefix(gf.rel, "benchmark/") {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if name := s.typeOf(gf, sel); name == "net/http.NewServeMux" || name == "net/http.ServeMux" {
					out = append(out, s.pos(sel)+": an HTTP mux outside internal/telemetry (use telemetry.Listen)")
				}
			}
			return true
		})
		out = append(out, s.commentHits(gf, "http.NewServeMux")...)
	}
	return out
}

// strayPools reports any sync.Pool in non-test Go outside
// internal/tensor and benchmark/ that poolOwners does not list (or a
// comment there naming sync.Pool): buffers recycle through tensor's
// one size-classed recycler.
func strayPools(s *source) []string {
	var out []string
	for _, gf := range s.files {
		if gf.test || strings.HasPrefix(gf.rel, "internal/tensor/") || strings.HasPrefix(gf.rel, "benchmark/") {
			continue
		}
		var owner []string // names of the enclosing fields and value specs
		ast.Inspect(gf.f, func(n ast.Node) bool {
			if n == nil {
				owner = owner[:len(owner)-1]
				return true
			}
			name := ""
			switch n := n.(type) {
			case *ast.Field:
				if len(n.Names) == 1 {
					name = n.Names[0].Name
				}
			case *ast.ValueSpec:
				if len(n.Names) == 1 {
					name = n.Names[0].Name
				}
			case *ast.SelectorExpr:
				if s.typeOf(gf, n) == "sync.Pool" && !ownsPool(gf.rel, owner) {
					out = append(out, s.pos(n)+": a sync.Pool outside internal/tensor's recycler")
				}
			}
			owner = append(owner, name)
			return true
		})
		out = append(out, s.commentHits(gf, "sync.Pool")...)
	}
	return out
}

// ownsPool reports whether the innermost named declaration enclosing a
// sync.Pool in rel is one poolOwners lists.
func ownsPool(rel string, owner []string) bool {
	for i := len(owner) - 1; i >= 0; i-- {
		if owner[i] != "" {
			_, ok := poolOwners[[2]string{rel, owner[i]}]
			return ok
		}
	}
	return false
}

// commentHits reports each comment in gf that contains text.
func (s *source) commentHits(gf *goFile, text string) []string {
	var out []string
	for _, cg := range gf.f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, text) {
				out = append(out, s.pos(c)+": a comment names "+text)
			}
		}
	}
	return out
}
