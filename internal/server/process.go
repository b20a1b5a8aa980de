package server

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// NewLogger builds a serving command's structured logger: text on
// stderr, or JSON with jsonOut.
func NewLogger(jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// Owner is what a serving process runs behind its front door: the
// daemon (*Server) or the cluster router.
type Owner interface {
	Serve() error
	Shutdown() error
	Metrics() *telemetry.Registry
	Flight() *obs.Recorder
}

// Process is the lifecycle gptpu-serve and gptpu-router share once
// their front door is bound.
type Process struct {
	Name        string // command name: the prefix of every line printed
	Log         *slog.Logger
	MetricsAddr string // serve the exporter and /debug/flight here ("" = off)
	Pprof       bool   // also mount net/http/pprof on the exporter
	FlightDump  string // write the flight recorder here at exit ("" = off)
}

// Run mounts the metrics exporter, dumps the flight recorder to stderr
// on SIGQUIT without stopping, serves until SIGINT/SIGTERM drains the
// owner (or Serve fails), writes the flight dump, and returns the
// process exit code.
func (p Process) Run(o Owner) int {
	rec := o.Flight()
	if p.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", o.Metrics().Handler())
		if rec != nil {
			mux.Handle("/debug/flight", rec.Handler())
		}
		if p.Pprof {
			telemetry.AttachPprof(mux)
		}
		ms, err := telemetry.ServeMux(p.MetricsAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics: %v\n", p.Name, err)
			return 1
		}
		defer ms.Close()
		fmt.Printf("%s: metrics on http://%s/metrics\n", p.Name, ms.Addr())
		if p.Pprof {
			fmt.Printf("%s: pprof on http://%s/debug/pprof/\n", p.Name, ms.Addr())
		}
	}

	// SIGQUIT snapshots the flight recorder — the classic "why is it
	// slow right now" probe.
	if rec != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				rec.Capture("sigquit")
				p.Log.Info("flight dump requested", "signal", "SIGQUIT")
				if err := rec.WriteJSON(os.Stderr); err != nil {
					p.Log.Warn("flight dump failed", "err", err)
				}
				fmt.Fprintln(os.Stderr)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveDone := make(chan error, 1)
	go func() { serveDone <- o.Serve() }()

	exit := 0
	select {
	case s := <-sig:
		fmt.Printf("%s: %v, draining\n", p.Name, s)
		if err := o.Shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: drain: %v\n", p.Name, err)
			exit = 1
		} else if err := <-serveDone; err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, err)
			exit = 1
		} else {
			fmt.Printf("%s: drained cleanly\n", p.Name)
		}
	case err := <-serveDone:
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, err)
			exit = 1
		}
	}

	if rec != nil && p.FlightDump != "" {
		if err := writeFlightDump(rec, p.FlightDump); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flight-dump: %v\n", p.Name, err)
			exit = 1
		} else {
			fmt.Printf("%s: flight recorder written to %s\n", p.Name, p.FlightDump)
		}
	}
	return exit
}

// writeFlightDump persists the flight recorder to path as JSON.
func writeFlightDump(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
