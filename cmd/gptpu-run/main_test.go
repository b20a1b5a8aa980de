package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	gptpu "repro"
	"repro/internal/timing"
	"repro/internal/trace"
)

func TestRunDispatchesEveryApp(t *testing.T) {
	for _, app := range []string{"gemm", "pagerank", "hotspot3d", "lud", "gaussian", "backprop", "blackscholes"} {
		app := app
		t.Run(app, func(t *testing.T) {
			ctx := gptpu.Open(gptpu.Config{Devices: 2, TimingOnly: true})
			n := 256
			if app == "blackscholes" {
				n = 1 << 14
			}
			tpu, cpu, err := run(app, ctx, n, 3, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if tpu.Elapsed <= 0 || cpu.Elapsed <= 0 {
				t.Fatalf("no time charged: tpu=%v cpu=%v", tpu.Elapsed, cpu.Elapsed)
			}
		})
	}
}

func TestRunFunctionalPath(t *testing.T) {
	ctx := gptpu.Open(gptpu.Config{Devices: 1})
	tpu, cpu, err := run("gemm", ctx, 128, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if tpu.Elapsed <= 0 || cpu.Elapsed <= 0 {
		t.Fatal("functional run charged no time")
	}
}

func TestRunUnknownApp(t *testing.T) {
	ctx := gptpu.Open(gptpu.Config{TimingOnly: true})
	if _, _, err := run("nope", ctx, 16, 1, 1, false); err == nil {
		t.Fatal("unknown app must error")
	}
}

// TestMetricsAndTraceSnapshots is the acceptance check of the
// observability surface: a real workload run with metrics and tracing
// enabled must produce (1) a parseable Prometheus text snapshot whose
// exec/byte/residency counters and per-operator latency histograms
// are populated, and (2) a Chrome trace whose slices carry op and
// task args.
func TestMetricsAndTraceSnapshots(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "out.prom")
	tracePath := filepath.Join(dir, "out.json")

	ctx := gptpu.Open(gptpu.Config{Devices: 2, TimingOnly: true, Trace: true})
	if _, _, err := run("gemm", ctx, 256, 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Metrics().WriteFile(promPath); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.WriteFile(tracePath, []*timing.Timeline{ctx.TL}, nil); err != nil {
		t.Fatal(err)
	}

	// Parse the Prometheus exposition: every sample line must be
	// "name{labels} value" with a numeric value, under a # TYPE header.
	pf, err := os.Open(promPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	values := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(pf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil && line[i+1:] != "+Inf" {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		values[line[:i]] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	sum := func(prefix string) float64 {
		var s float64
		for k, v := range values {
			if strings.HasPrefix(k, prefix) {
				s += v
			}
		}
		return s
	}
	if sum("gptpu_device_execs_total") == 0 {
		t.Error("no device execs recorded")
	}
	if sum("gptpu_device_upload_bytes_total") == 0 {
		t.Error("no upload bytes recorded")
	}
	if sum("gptpu_device_residency_hits_total")+sum("gptpu_device_residency_misses_total") == 0 {
		t.Error("no residency activity recorded")
	}
	if typ := types["gptpu_operator_vlatency_vseconds"]; typ != "histogram" {
		t.Errorf("operator latency type = %q, want histogram", typ)
	}
	if sum("gptpu_operator_vlatency_vseconds_count") == 0 {
		t.Error("per-operator latency histogram is empty")
	}

	// Parse the Chrome trace: slices must carry op/task args.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var withOp, withTask int
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		args, _ := e["args"].(map[string]any)
		if args["op"] != nil {
			withOp++
		}
		if args["task"] != nil {
			withTask++
		}
	}
	if withOp == 0 || withTask == 0 {
		t.Fatalf("trace slices missing args: op=%d task=%d", withOp, withTask)
	}
}
