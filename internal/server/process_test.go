package server

import (
	"io"
	"log/slog"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// stubOwner serves nothing: Serve returns at once.
type stubOwner struct{ served bool }

func (o *stubOwner) Serve() error                 { o.served = true; return nil }
func (o *stubOwner) Shutdown() error              { return nil }
func (o *stubOwner) Metrics() *telemetry.Registry { return telemetry.NewRegistry() }
func (o *stubOwner) Flight() *obs.Recorder        { return nil }

// TestProcessPprofNeedsMetrics: pprof mounts on the metrics listener,
// so -pprof without -metrics is a usage error (exit 2) caught before
// the owner serves, not a flag that silently does nothing.
func TestProcessPprofNeedsMetrics(t *testing.T) {
	p := Process{Name: "stub", Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Pprof: true}
	o := &stubOwner{}
	if code := p.Run(o); code != 2 {
		t.Fatalf("Run exit code %d, want 2", code)
	}
	if o.served {
		t.Fatal("Run served despite the usage error")
	}
	p.Pprof = false
	if code := p.Run(o); code != 0 || !o.served {
		t.Fatalf("Run without -pprof: exit code %d, served %v; want 0 and served", code, o.served)
	}
}
