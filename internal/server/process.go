package server

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Owner is what a serving process runs behind its front door: the
// daemon (*Server) or the cluster router.
type Owner interface {
	Serve() error
	Shutdown() error
	Metrics() *telemetry.Registry
	Flight() *obs.Recorder
}

// Process is what gptpu-serve and gptpu-router share: the process
// flags both bind, the logger and flight recorder built from them, and
// the lifecycle once their front door is bound.
type Process struct {
	Name  string       // command name: the prefix of every line printed
	Log   *slog.Logger // built by Start
	Pprof bool         // also mount net/http/pprof on the exporter

	metricsAddr string // serve the exporter and /debug/flight here ("" = off)
	obsOn       bool
	flightN     int
	flightDump  string // write the flight recorder here at exit ("" = off)
	logJSON     bool
}

// NewProcess binds the flags every serving command shares on fs:
// -metrics, -obs, -flight, -flight-dump and -log-json.
func NewProcess(name string, fs *flag.FlagSet) *Process {
	p := &Process{Name: name}
	fs.StringVar(&p.metricsAddr, "metrics", "", "also serve the telemetry HTTP exporter and /debug/flight on this address (e.g. :9090)")
	fs.BoolVar(&p.obsOn, "obs", true, "per-request tracing, stage histograms, and the flight recorder")
	fs.IntVar(&p.flightN, "flight", 256, "flight recorder capacity: completed request waterfalls kept for postmortems")
	fs.StringVar(&p.flightDump, "flight-dump", "", "write the flight recorder as JSON to this file at exit")
	fs.BoolVar(&p.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	return p
}

// Start builds, from the parsed flags, the structured logger (text on
// stderr, or JSON with -log-json; also kept in p.Log) and the flight
// recorder (nil with -obs=false).
func (p *Process) Start() (*slog.Logger, *obs.Recorder) {
	opts := &slog.HandlerOptions{Level: slog.LevelInfo}
	if p.logJSON {
		p.Log = slog.New(slog.NewJSONHandler(os.Stderr, opts))
	} else {
		p.Log = slog.New(slog.NewTextHandler(os.Stderr, opts))
	}
	var rec *obs.Recorder
	if p.obsOn {
		rec = obs.New(obs.Config{Capacity: p.flightN})
	}
	return p.Log, rec
}

// Run mounts the metrics exporter, dumps the flight recorder to stderr
// on SIGQUIT without stopping, serves until SIGINT/SIGTERM drains the
// owner (or Serve fails), writes the flight dump, and returns the
// process exit code: 2 when the flags contradict each other.
func (p *Process) Run(o Owner) int {
	if p.Pprof && p.metricsAddr == "" {
		fmt.Fprintf(os.Stderr, "%s: -pprof needs -metrics: profiles mount on the metrics listener\n", p.Name)
		return 2
	}
	rec := o.Flight()
	if p.metricsAddr != "" {
		var routes map[string]http.Handler
		if rec != nil {
			routes = map[string]http.Handler{"/debug/flight": rec.Handler()}
		}
		ms, err := telemetry.Listen(p.metricsAddr, o.Metrics(), p.Pprof, routes)
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

	if rec != nil && p.flightDump != "" {
		if err := rec.WriteFile(p.flightDump); err != nil {
			fmt.Fprintf(os.Stderr, "%s: flight-dump: %v\n", p.Name, err)
			exit = 1
		} else {
			fmt.Printf("%s: flight recorder written to %s\n", p.Name, p.flightDump)
		}
	}
	return exit
}
