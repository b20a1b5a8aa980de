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

// poolOwners are the only struct-field sync.Pools in non-test Go
// outside internal/tensor's one buffer recycler, keyed by file and
// field name. A package-level pool is allowed by its globalOwners
// entry. Each recycles objects, not buffers.
var poolOwners = map[[2]string]string{
	{"internal/core/context.go", "plans"}: "per-context instruction-plan storage",
}

// doorFiles are the only non-test files outside benchmark/ that may
// accept connections, build a frame reader or a bufio reader or
// writer: one accept loop and one read loop in the front door, one
// read loop in the client, and the framing they share.
var doorFiles = map[string]bool{
	"internal/server/frontdoor.go": true,
	"internal/server/client.go":    true,
	"internal/server/protocol.go":  true,
}

// globalOwners are the package-level vars of non-test Go outside
// benchmark/ and examples/, keyed by file and name, each with the
// reason it is process-wide. Error sentinels need no entry.
var globalOwners = map[[2]string]string{
	{"internal/tensor/pool.go", "i8Pools"}:                       "the one buffer recycler's int8 size classes",
	{"internal/tensor/pool.go", "i32Pools"}:                      "the one buffer recycler's int32 size classes",
	{"internal/tensor/pool.go", "f32Pools"}:                      "the one buffer recycler's float32 size classes",
	{"internal/tensor/pool.go", "bytePools"}:                     "the one buffer recycler's byte size classes",
	{"internal/tensor/pool.go", "i64Pools"}:                      "the one buffer recycler's int64 size classes",
	{"internal/edgetpu/ops_fast.go", "gemmScratchPool"}:          "recycles the GEMM kernel's scratch structs",
	{"internal/edgetpu/ops_fast.go", "tanhCache"}:                "tanh LUTs by input scale: pure functions of the key, shared by every device",
	{"internal/edgetpu/kernels.go", "Fast"}:                      "the optimized kernel table, never written after init",
	{"internal/edgetpu/kernels.go", "Ref"}:                       "the reference kernel table, never written after init",
	{"internal/obs/obs.go", "idSeq"}:                             "trace IDs are unique per process",
	{"internal/obs/obs.go", "idBase"}:                            "trace IDs are unique per process",
	{"internal/server/protocol.go", "errClasses"}:                "the wire's error-class table, read only",
	{"internal/isa/isa.go", "opNames"}:                           "opcode names, read only",
	{"internal/fuzzgraph/gen.go", "opNames"}:                     "node-kind names, read only",
	{"internal/fuzzgraph/gen.go", "dimAlphabet"}:                 "the generator's shape alphabet, read only",
	{"internal/cluster/membership.go", "memberStates"}:           "membership states in export order, read only",
	{"internal/apps/blackscholes/blackscholes.go", "polyCoeffs"}: "CNDF polynomial fitted once at start-up, read only",
	{"internal/model/model.go", "magic"}:                         "the model-format magic, read only",
	{"internal/core/optable.go", "operators"}:                    "the operator table, never written after init",
	{"internal/server/protocol.go", "wireOps"}:                   "the wire's operator types onto the operator table, read only",
	{"openctpu/openctpu.go", "matrixOps"}:                        "every operator of the C API onto the operator table, read only",
	{"internal/fuzzgraph/run.go", "tableOps"}:                    "every node kind but host glue onto the operator table, read only",
}

// apiAllowed are the exported names of internal/ that no non-test Go
// reads, keyed by package path below internal/ and name ("pkg.Name" or
// "pkg.Type.Method"), each with its reason: a caller an open ROADMAP
// item gives it, or a test helper other packages' tests use.
var apiAllowed = map[string]string{
	"quant.OutputScale":            "ROADMAP item 5 puts the static chain rule (Eqs. 4–8) on the graph path",
	"quant.EstimateChainedScale":   "ROADMAP item 5 puts the static chain rule (Eqs. 4–8) on the graph path",
	"quant.OpOther":                "ROADMAP item 5's chain rule classes every range-preserving operator (Eq. 8)",
	"quant.MethodSampled":          "ROADMAP item 5 decides whether calibration samples (§6.2.2) or scans",
	"tensor.RaceEnabled":           "budget tests in several packages skip under -race, where sync.Pool drops Puts",
	"server.Server.Abort":          "the front door's tests and internal/cluster's failover tests hard-kill a daemon with it",
	"cluster.Router.Abort":         "internal/server's TestFrontDoor hard-kills the router with it",
	"telemetry.Histogram.Count":    "the tests of telemetry, obs and server read observation counts with it",
	"apps/gaussian.BackSubstitute": "internal/integration checks the elimination end to end",
	"apps/lud.SplitLU":             "internal/integration checks the factors end to end",
}

// interfaceMethods are the standard library interfaces' method names a
// type in internal/ implements; the rule adds every method name an
// interface of the repository declares.
var interfaceMethods = []string{"String", "Error", "ServeHTTP"}

// opTableFile declares core's operator table. It and protocol.go's
// MsgType.String are the only places a switch may name several table
// operators or several names another package maps onto them.
const opTableFile = "internal/core/optable.go"

// tableEnums are, by package, the names that map onto the operator
// table: the wire's operator request types, the C API's operators and
// the fuzzer's node kinds but host glue.
var tableEnums = map[string][]string{
	"repro/internal/server": {"MsgGemm", "MsgAdd", "MsgSub", "MsgMul", "MsgConv2D", "MsgMean", "MsgMax"},
	"repro/openctpu": {"Conv2D", "FullyConnected", "Add", "Sub", "Mul", "Crop", "Ext",
		"Mean", "Max", "Tanh", "ReLU", "Gemm"},
	"repro/internal/fuzzgraph": {"OpMatMul", "OpMatMulFC", "OpAdd", "OpSub", "OpMul", "OpTanh", "OpReLU",
		"OpConv2D", "OpConv2DStrided", "OpCrop", "OpExt", "OpMatVec", "OpMean", "OpMax"},
}

// opTableExempt are the files besides the table's own that may switch
// over its operators, each with its reason.
var opTableExempt = map[string]string{
	"internal/fuzzgraph/gen.go": "the generator's own grammar: its shape and magnitude rules stay " +
		"independent of the table on purpose, so the fuzzer tests the table instead of restating it",
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
	{"stages", literalStages},
	{"one-door", doorsOutsideServer},
	{"globals", unlistedGlobals},
	{"one-op-table", tableSwitches},
	{"test-only-api", unneededExports},
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
		"internal/edgetpu/ops_fast.go": `package edgetpu
import "sync"
var gemmScratchPool sync.Pool
var spare sync.Pool`,
		"internal/tensor/pool.go": `package tensor
import "sync"
var p sync.Pool`,
		"internal/server/x_test.go": `package server
import "sync"
var p sync.Pool`,
	},
	"stages": {
		"internal/obs/obs.go": `package obs
const (
	StageUsed = "used"
	StageIdle = "idle"
	StageSelf = "self"
)
var total = StageSelf`,
		"internal/core/engine.go": `package core
import "repro/internal/obs"
type ob interface {
	ObserveSpan(stage string, n int)
	Begin(stage, attr string)
	End(stage string)
}
func f(o ob) {
	o.ObserveSpan("queue_wait", 1)
	o.ObserveSpan(obs.StageUsed, 1)
	o.Begin("batch_wait", "")
	o.End(obs.StageUsed)
}`,
		"internal/core/engine_test.go": `package core
func g(o ob) { o.End("a test may") }`,
		"examples/x/main.go": `package main
type t struct{}
func (t) End() int { return 0 }
var _ = t{}.End()`,
	},
	"one-door": {
		"internal/server/frontdoor.go": `package server
import (
	"bufio"
	"net"
)
func serve(ln net.Listener) {
	ln.Accept()
	_ = bufio.NewReader(nil)
	_ = newConnReader(nil)
}`,
		"internal/server/loopback.go": `package server
import "net"
func accept(ln net.Listener) { ln.Accept() }`,
		"internal/model/stream.go": `package model
import buf "bufio"
var w = buf.NewWriterSize(nil, 1)`,
		"cmd/x/main.go": `package main
import "repro/internal/server"
var r = server.NewFrameReader(nil)`,
		"cmd/x/main_test.go": `package main
import "bufio"
var s = bufio.NewScanner(nil)`,
		"benchmark/main.go": `package main
import "bufio"
var s = bufio.NewScanner(nil)`,
	},
	"globals": {
		"internal/tensor/pool.go": `package tensor
var i8Pools, i32Pools [2]int`,
		"internal/x/x.go": `package x
import (
	"errors"
	"fmt"
	"repro/internal/core"
)
var (
	ErrA   = errors.New("a")
	ErrB   = fmt.Errorf("b")
	ErrC   = core.ErrClosed
	cache  = map[string]int{}
	lo, hi = 1, 2
)
func f() { var local int; _ = local }`,
		"internal/x/x_test.go": `package x
var fixture = 1`,
		"examples/y/main.go": `package main
var state int`,
		"benchmark/main.go": `package main
var state int`,
	},
	"test-only-api": {
		"api.go": `package gptpu
import "repro/internal/core"
type Context = core.Context`,
		"internal/core/context.go": `package core
type Context struct{}
func (c *Context) Unread() {}
func Inside() int { return 1 }
func TestOnly() int { return 2 }
func Bench() int { return Inside() }
type Interp struct{}
func (i *Interp) Execute() {}`,
		"internal/core/context_test.go": `package core
var _ = TestOnly()`,
		"benchmark/main.go": `package main
import (
	"repro/internal/core"
	"text/template"
)
var _ = core.Bench()
var _ *core.Interp
var _ = new(template.Template).Execute(nil, nil)`,
	},
	"one-op-table": {
		"internal/core/optable.go": `package core
type Operator uint8
const (
	OpGemm Operator = iota
	OpAdd
	OpMean
)
const other = 1
func arity(op Operator) int {
	switch op {
	case OpGemm, OpAdd:
		return 2
	}
	return 1
}`,
		"internal/server/protocol.go": `package server
type MsgType byte
const (
	MsgGemm MsgType = 16
	MsgAdd  MsgType = 17
	MsgMean MsgType = 21
)
func (t MsgType) String() string {
	switch t {
	case MsgGemm:
		return "gemm"
	case MsgAdd, MsgMean:
		return "add or mean"
	}
	return ""
}`,
		"internal/server/server.go": `package server
import "repro/internal/core"
func run(t MsgType, op core.Operator) {
	switch t {
	case MsgGemm:
	case MsgAdd, MsgMean:
	}
	switch op {
	case core.OpGemm:
	}
}`,
		"internal/server/server_test.go": `package server
func check(t MsgType) {
	switch t {
	case MsgGemm, MsgMean:
	}
}`,
		"openctpu/openctpu.go": `package openctpu
import "repro/internal/core"
type TPUOp int
const (
	Crop TPUOp = iota
	Ext
)
func arity(op core.Operator) int {
	switch {
	case op == core.OpGemm || op == core.OpAdd:
		return 2
	}
	return 1
}
func invoke(op TPUOp) {
	switch op {
	case Crop, Ext:
	}
}`,
		"internal/fuzzgraph/run.go": `package fuzzgraph
type OpKind int
const (
	OpCrop OpKind = iota
	OpExt
	OpHost
)
type NodeSpec struct{ Op OpKind }
func build(ns NodeSpec) {
	switch {
	case ns.Op == OpCrop:
	case ns.Op == OpExt:
	}
	switch ns.Op {
	case OpCrop, OpHost:
	}
}`,
		"internal/fuzzgraph/gen.go": `package fuzzgraph
func shape(op OpKind) {
	switch op {
	case OpCrop, OpExt:
	}
}`,
		"benchmark/main.go": `package main
import "repro/internal/core"
func arity(op core.Operator) {
	switch op {
	case core.OpGemm, core.OpAdd:
	}
}`,
	},
}

// seededWant is, per rule, the substrings its seeded tree's violations
// must carry, one violation each.
var seededWant = map[string][]string{
	"settings":      {"obs.Config.Inside", "obs.Config.TestOnly"},
	"deleted-flags": {"DESIGN.md: -pace", "Makefile: -nowire", "README.md: -dead-strikes", "scripts/x.sh: -batch-max"},
	"core-escape":   {"cmd/x/main.go:3", "cmd/x/main.go:4", "internal/x/x_test.go:2"},
	"http-mux":      {"cmd/x/main.go:3"},
	"sync-pool":     {"internal/core/context.go:5", "internal/edgetpu/ops_fast.go:4", "internal/server/x.go:3", "internal/core/context.go: gone"},
	"stages":        {"internal/core/engine.go:9: ObserveSpan", "internal/core/engine.go:11: Begin", "obs.StageIdle"},
	"one-door":      {"cmd/x/main.go:3", "internal/model/stream.go:3", "internal/server/loopback.go:3"},
	"globals":       {"internal/x/x.go:11: cache", "internal/x/x.go:12: lo", "internal/x/x.go:12: hi", "internal/x/x.go: gone"},
	"one-op-table": {"internal/fuzzgraph/run.go:10: switch names OpCrop, OpExt", "internal/server/server.go:4: switch names MsgAdd, MsgGemm, MsgMean",
		"openctpu/openctpu.go:9: switch names OpAdd, OpGemm", "openctpu/openctpu.go:16: switch names Crop, Ext"},
	"test-only-api": {"internal/core/context.go:4: core.Inside is read only inside its package: unexport",
		"internal/core/context.go:5: core.TestOnly is test-only", "apiAllowed: core.Gone is stale"},
}

// owners are the allow-lists the globals, sync-pool and test-only-api
// rules read.
type owners struct {
	globals, pools map[[2]string]string
	api            map[string]string
}

// seededOwners replace globalOwners, poolOwners and apiAllowed in those
// three rules' seeded trees: each lists what its tree declares, plus
// one entry naming something the tree no longer declares.
var seededOwners = map[string]owners{
	"globals": {globals: map[[2]string]string{
		{"internal/tensor/pool.go", "i8Pools"}:  "seeded",
		{"internal/tensor/pool.go", "i32Pools"}: "seeded",
		{"internal/x/x.go", "gone"}:             "a var deleted since",
	}},
	"test-only-api": {api: map[string]string{
		"core.Interp.Execute": "seeded: a same-named call on another type must not make it stale",
		"core.Gone":           "a name deleted since",
	}},
	"sync-pool": {
		globals: map[[2]string]string{{"internal/edgetpu/ops_fast.go", "gemmScratchPool"}: "seeded"},
		pools: map[[2]string]string{
			{"internal/core/context.go", "plans"}: "seeded",
			{"internal/core/context.go", "gone"}:  "a field deleted since",
		},
	},
}

func TestSourceRules(t *testing.T) {
	repo := newSource(t, readRepo(t))
	for _, r := range sourceRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(repo) {
				t.Error(v)
			}
			seeded := newSource(t, seededViolations[r.name])
			if o, ok := seededOwners[r.name]; ok {
				seeded.owners = o
			}
			got := r.check(seeded)
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
	owners
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
		owners: owners{globals: globalOwners, pools: poolOwners, api: apiAllowed},
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
// internal/tensor and benchmark/ that no allowlist names (or a
// comment there naming sync.Pool), and any poolOwners entry that no
// longer names one: buffers recycle through tensor's one size-classed
// recycler.
func strayPools(s *source) []string {
	var out []string
	pooled := make(map[[2]string]bool) // file and name of each sync.Pool's declaration
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
				if s.typeOf(gf, n) == "sync.Pool" {
					k := [2]string{gf.rel, innermost(owner)}
					pooled[k] = true
					if s.pools[k] == "" && s.globals[k] == "" {
						out = append(out, s.pos(n)+": a sync.Pool outside internal/tensor's recycler")
					}
				}
			}
			owner = append(owner, name)
			return true
		})
		out = append(out, s.commentHits(gf, "sync.Pool")...)
	}
	return append(out, staleOwners(s.pools, pooled, "poolOwners")...)
}

// innermost is the name of the innermost named declaration in owner.
func innermost(owner []string) string {
	for i := len(owner) - 1; i >= 0; i-- {
		if owner[i] != "" {
			return owner[i]
		}
	}
	return ""
}

// staleOwners reports, sorted, each entry of the allow-list called
// list whose file and name declared does not hold: an entry leaves
// with what it allowed.
func staleOwners(allowed map[[2]string]string, declared map[[2]string]bool, list string) []string {
	var out []string
	for k := range allowed {
		if !declared[k] {
			out = append(out, fmt.Sprintf("%s: %s is in %s but no longer declared there", k[0], k[1], list))
		}
	}
	sort.Strings(out)
	return out
}

// literalStages reports, in non-test Go, every ObserveSpan, Begin or
// End call whose stage is a string literal, and every obs.Stage*
// constant that nothing names outside its own declaration: a stage is
// spelled once, in package obs.
func literalStages(s *source) []string {
	var out []string
	consts := make(map[string]*ast.Ident) // name → declaring ident
	var order []string
	for _, gf := range s.files {
		if gf.test || gf.pkg != "repro/internal/obs" {
			continue
		}
		for _, d := range gf.f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if strings.HasPrefix(id.Name, "Stage") {
							consts[id.Name] = id
							order = append(order, id.Name)
						}
					}
				}
			}
		}
	}
	named := make(map[string]bool)
	for _, gf := range s.files {
		if gf.test {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				switch sel.Sel.Name {
				case "ObserveSpan", "Begin", "End":
					if lit, ok := n.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						out = append(out, fmt.Sprintf("%s: %s stage %s is a string literal (use an obs.Stage* constant)",
							s.pos(lit), sel.Sel.Name, lit.Value))
					}
				}
			case *ast.SelectorExpr:
				if s.typeOf(gf, n) == "repro/internal/obs."+n.Sel.Name {
					named[n.Sel.Name] = true
				}
			case *ast.Ident:
				if gf.pkg == "repro/internal/obs" && consts[n.Name] != nil && consts[n.Name] != n {
					named[n.Name] = true
				}
			}
			return true
		})
	}
	for _, name := range order {
		if !named[name] {
			out = append(out, fmt.Sprintf("%s: obs.%s is never emitted (emit it or delete it)", s.pos(consts[name]), name))
		}
	}
	return out
}

// doorsOutsideServer reports, in non-test Go outside benchmark/ and
// doorFiles, any Accept() call, any use of NewFrameReader or
// newConnReader, and any bufio constructor: connections are accepted
// and read in the front door and the client only.
func doorsOutsideServer(s *source) []string {
	var out []string
	for _, gf := range s.files {
		if gf.test || strings.HasPrefix(gf.rel, "benchmark/") || doorFiles[gf.rel] {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			what := ""
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Accept" && len(n.Args) == 0 {
					what = "Accept()"
				}
			case *ast.SelectorExpr:
				if name := s.typeOf(gf, n); strings.HasPrefix(name, "bufio.New") {
					what = name
				}
			case *ast.Ident:
				if n.Name == "NewFrameReader" || n.Name == "newConnReader" {
					what = n.Name
				}
			}
			if what != "" {
				out = append(out, s.pos(n)+": "+what+" outside the front door and the client")
			}
			return true
		})
	}
	return out
}

// unlistedGlobals reports each package-level var of non-test Go outside
// benchmark/ and examples/ that globalOwners does not list with a
// reason, and each globalOwners entry naming no such var. A var
// initialized by errors.New, fmt.Errorf or another package's Err*
// sentinel is exempt.
func unlistedGlobals(s *source) []string {
	var out []string
	declared := make(map[[2]string]bool)
	for _, gf := range s.files {
		if gf.test || strings.HasPrefix(gf.rel, "benchmark/") || strings.HasPrefix(gf.rel, "examples/") {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					k := [2]string{gf.rel, id.Name}
					declared[k] = true
					if i < len(vs.Values) && s.isSentinel(gf, vs.Values[i]) {
						continue
					}
					if s.globals[k] == "" {
						out = append(out, fmt.Sprintf("%s: %s is package-level state with no reason in globalOwners", s.pos(id), id.Name))
					}
				}
			}
		}
	}
	return append(out, staleOwners(s.globals, declared, "globalOwners")...)
}

// tableSwitches reports each switch in non-test Go outside benchmark/
// whose cases name two or more operators of core's operator table, or
// two or more of the names one of tableEnums maps onto it, outside the
// table's file, protocol.go's MsgType.String and opTableExempt: an
// operator's operand count, parameters, shape rule and call are read
// from the table, not spelled out again per caller.
func tableSwitches(s *source) []string {
	named := make(map[string]bool) // "pkg.Name" of a table operator or a name mapped onto one
	for pkg, names := range tableEnums {
		for _, name := range names {
			named[pkg+"."+name] = true
		}
	}
	for _, gf := range s.files {
		if gf.rel != opTableFile {
			continue
		}
		for _, d := range gf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			if typ, ok := gd.Specs[0].(*ast.ValueSpec).Type.(*ast.Ident); !ok || typ.Name != "Operator" {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					named[gf.pkg+"."+id.Name] = true
				}
			}
		}
	}
	var out []string
	for _, gf := range s.files {
		if gf.test || strings.HasPrefix(gf.rel, "benchmark/") || gf.rel == opTableFile || opTableExempt[gf.rel] != "" {
			continue
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !(gf.rel == "internal/server/protocol.go" && n.Name.Name == "String")
			case *ast.SwitchStmt:
				hits := make(map[string]bool)
				for _, st := range n.Body.List {
					for _, e := range st.(*ast.CaseClause).List {
						ast.Inspect(e, func(x ast.Node) bool {
							switch x := x.(type) {
							case *ast.SelectorExpr:
								if name := s.typeOf(gf, x); named[name] {
									hits[x.Sel.Name] = true
								}
								return false
							case *ast.Ident:
								if named[gf.pkg+"."+x.Name] {
									hits[x.Name] = true
								}
							}
							return true
						})
					}
				}
				if len(hits) >= 2 {
					names := make([]string, 0, len(hits))
					for name := range hits {
						names = append(names, name)
					}
					sort.Strings(names)
					out = append(out, fmt.Sprintf("%s: switch names %s outside the operator table (read the table instead)",
						s.pos(n), strings.Join(names, ", ")))
				}
			}
			return true
		})
	}
	return out
}

// unneededExports reports each exported top-level name and method
// declared in non-test Go under internal/ that no other package reads
// (unexport it) or that no non-test Go reads at all (delete it, move it
// into a _test.go file or give it an apiAllowed entry), and each
// apiAllowed entry that allows nothing. A name read by another
// package's production code, the benchmark module's included, passes;
// so does one read by production code of its own package and by
// another package's tests, an external _test package's included (a
// test seam), a method of a type the root package aliases (the public
// API), a method whose name an interface declares, a type named in the
// signature or exported fields of something another package (or its
// tests) reads or apiAllowed lists, and a constant of such a type.
// Top-level names are matched through imports; methods, with no type
// information, by name, so a method counts as read wherever a selector
// of its name appears (a package-qualified selector excepted), and an
// apiAllowed method stays needed for as long as it is declared.
func unneededExports(s *source) []string {
	type use struct {
		pkg  string
		test bool
	}
	type decl struct {
		id      *ast.Ident
		gf      *goFile
		recv    string   // receiver type's "pkg.Name" of a method
		constOf string   // declared type's "pkg.Name" of a constant
		node    ast.Node // what exposes types: a signature or a type
	}
	uses := make(map[string]map[use]bool) // "pkg.Name" of a top-level name, ".Name" of a method
	mark := func(key string, u use) {
		if uses[key] == nil {
			uses[key] = make(map[use]bool)
		}
		uses[key][u] = true
	}
	iface := make(map[string]bool)
	for _, name := range interfaceMethods {
		iface[name] = true
	}
	decls := make(map[string]*decl)
	var order []string
	declare := func(key string, d *decl) {
		if decls[key] == nil {
			decls[key] = d
			order = append(order, key)
		}
	}
	for _, gf := range s.files {
		u := use{gf.pkg, gf.test}
		if strings.HasSuffix(gf.f.Name.Name, "_test") {
			u.pkg += "_test" // an external test package reads through the import
		}
		skip := make(map[*ast.Ident]bool) // declared names and selected names
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && gf.imp[x.Name] != "" {
					mark(gf.imp[x.Name]+"."+n.Sel.Name, u)
					return false
				}
				mark("."+n.Sel.Name, u)
			case *ast.FuncDecl:
				skip[n.Name] = true
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						if !gf.test {
							iface[id.Name] = true
						}
					}
				}
			case *ast.Ident:
				if !skip[n] {
					mark(gf.pkg+"."+n.Name, u)
				}
			}
			return true
		})
		if gf.test || !strings.HasPrefix(gf.rel, "internal/") {
			continue
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declare(gf.pkg+"."+d.Name.Name, &decl{id: d.Name, gf: gf, node: d.Type})
					continue
				}
				recv := gf.pkg + "." + recvType(d.Recv.List[0].Type)
				declare(recv+"."+d.Name.Name, &decl{id: d.Name, gf: gf, recv: recv, node: d.Type})
			case *ast.GenDecl:
				var typ ast.Expr // a constant's type, repeated by a spec with none
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							declare(gf.pkg+"."+spec.Name.Name, &decl{id: spec.Name, gf: gf, node: spec})
						}
					case *ast.ValueSpec:
						if spec.Type != nil || len(spec.Values) > 0 {
							typ = spec.Type
						}
						for _, id := range spec.Names {
							if id.IsExported() {
								dd := &decl{id: id, gf: gf, node: spec.Type}
								if d.Tok == token.CONST && typ != nil {
									dd.constOf = s.typeOf(gf, typ)
								}
								declare(gf.pkg+"."+id.Name, dd)
							}
						}
					}
				}
			}
		}
	}
	aliased := make(map[string]bool)
	for name, target := range s.alias {
		if strings.HasPrefix(name, "repro.") {
			aliased[target] = true
		}
	}
	refsOf := func(key string) (outProd, outTest, inProd bool) {
		d := decls[key]
		if d.recv != "" {
			key = "." + d.id.Name
		}
		for u := range uses[key] {
			switch {
			case u.pkg != d.gf.pkg && !u.test:
				outProd = true
			case u.pkg != d.gf.pkg:
				outTest = true
			case !u.test:
				inProd = true
			}
		}
		return
	}
	// public reports whether a method is part of its type's API without
	// a reader of its own: the root package aliases the type, or an
	// interface declares the name.
	public := func(d *decl) bool { return d.recv != "" && (aliased[d.recv] || iface[d.id.Name]) }

	// exposed holds every name another package reads, every public
	// method, every apiAllowed name, and, to a fixed point, every type
	// their signatures and exported fields name.
	exposed := make(map[string]bool)
	var queue []string
	expose := func(key string) {
		if decls[key] != nil && !exposed[key] {
			exposed[key] = true
			queue = append(queue, key)
		}
	}
	for _, key := range order {
		if outProd, outTest, _ := refsOf(key); outProd || outTest || public(decls[key]) || s.api[strings.TrimPrefix(key, "repro/internal/")] != "" {
			expose(key)
		}
	}
	for len(queue) > 0 {
		d := decls[queue[0]]
		queue = queue[1:]
		for _, name := range exposedTypes(d.gf, d.node) {
			expose(name)
		}
	}
	var out []string
	needed := make(map[string]bool) // apiAllowed entries in use
	for _, key := range order {
		d := decls[key]
		short := strings.TrimPrefix(key, "repro/internal/")
		outProd, _, inProd := refsOf(key)
		allowed := s.api[short] != ""
		if allowed && (d.recv != "" || !outProd && !inProd) {
			// A same-named selector elsewhere does not retire a method's
			// entry: with no types, it may call some other type's method.
			needed[short] = true
		}
		switch {
		case allowed && !outProd && !inProd:
		case outProd || public(d):
		case !inProd:
			out = append(out, fmt.Sprintf("%s: %s is test-only: no non-test code reads it (delete it, move it into a _test.go file or give it an apiAllowed entry)",
				s.pos(d.id), short))
		case !exposed[key] && !exposed[d.constOf]:
			out = append(out, fmt.Sprintf("%s: %s is read only inside its package: unexport it", s.pos(d.id), short))
		}
	}
	var stale []string
	for short := range s.api {
		if !needed[short] {
			stale = append(stale, fmt.Sprintf("apiAllowed: %s is stale: no exported name of that key is read only by tests", short))
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// recvType is the name of a method receiver's type.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// exposedTypes lists, as "pkg.Name", the names n mentions in gf outside
// function bodies, unexported struct fields and parameter names: the
// types a signature or a type declaration makes part of its API.
func exposedTypes(gf *goFile, n ast.Node) []string {
	var out []string
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					exported := len(f.Names) == 0
					for _, id := range f.Names {
						exported = exported || id.IsExported()
					}
					if exported {
						walk(f.Type)
					}
				}
				return false
			case *ast.Field:
				walk(n.Type)
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && gf.imp[x.Name] != "" {
					out = append(out, gf.imp[x.Name]+"."+n.Sel.Name)
				}
				return false
			case *ast.Ident:
				out = append(out, gf.pkg+"."+n.Name)
			}
			return true
		})
	}
	if n != nil {
		walk(n)
	}
	return out
}

// isSentinel reports whether e is errors.New(...), fmt.Errorf(...) or
// another package's Err* value.
func (s *source) isSentinel(gf *goFile, e ast.Expr) bool {
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			name := s.typeOf(gf, sel)
			return name == "errors.New" || name == "fmt.Errorf"
		}
		return false
	}
	sel, ok := e.(*ast.SelectorExpr)
	return ok && strings.HasPrefix(sel.Sel.Name, "Err") && s.typeOf(gf, sel) != ""
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
