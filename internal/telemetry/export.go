package telemetry

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one
// sample line per family member, histogram expansion into _bucket
// (cumulative, le-labelled), _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, ms := range r.Snapshot() {
		if ms.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ms.Name, escapeHelp(ms.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ms.Name, ms.Type); err != nil {
			return err
		}
		for _, s := range ms.Samples {
			if err := writeSample(w, ms.Name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name string, s Sample) error {
	if s.Hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labelString(s.Labels, "", ""), formatValue(s.Value))
		return err
	}
	h := s.Hist
	for i, c := range h.Counts {
		le := "+Inf"
		if i < len(h.Bounds) {
			le = formatValue(h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(s.Labels, "le", le), c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(s.Labels, "", ""), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.Labels, "", ""), h.Count)
	return err
}

// labelString renders {a="b",...}, optionally appending one extra
// pair (the histogram le label); empty label sets render as nothing.
func labelString(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Name, escapeLabel(l.Value))
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	// %q handles quote and backslash escaping; newlines are the only
	// extra case the format cares about and %q covers those too.
	return s
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler exposing the registry in the
// Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Server is a running metrics endpoint; Close shuts it down.
type Server struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close stops serving.
func (s *Server) Close() error { return s.srv.Close() }

// Listen starts the one HTTP listener a command mounts: the registry
// at / (so /metrics too), net/http/pprof under /debug/pprof/ with
// withPprof, and any extra routes (a daemon's /debug/flight). The
// default-mux side effect of importing net/http/pprof is contained
// here: commands opt in per listener instead of always exposing
// profiles. It returns once the listener is bound; serving continues
// in the background until Close.
func Listen(addr string, reg *Registry, withPprof bool, routes map[string]http.Handler) (*Server, error) {
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for path, h := range routes {
		mux.Handle(path, h)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(l) }()
	return &Server{srv: srv, addr: l.Addr().String()}, nil
}
