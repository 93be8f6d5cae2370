package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Runner generates workload traces once and memoizes simulation results,
// since the figures share many configurations. It is safe for concurrent
// use: both caches are singleflight maps, so two goroutines asking for
// the same trace or run wait on one computation instead of racing.
type Runner struct {
	// Procs is the machine size (the paper's is 16).
	Procs int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Jobs bounds the number of concurrent simulations a run matrix fans
	// out to; 0 means runtime.NumCPU().
	Jobs int
	// Ctx, when non-nil, bounds every simulation this runner executes:
	// cancelling it makes in-flight machine runs stop between scheduler
	// steps and surface the context's error. Set before first use (the
	// comasrv daemon threads per-job contexts through here).
	Ctx context.Context
	// OnSimulate, when non-nil, is invoked once per simulation actually
	// executed (memoized hits do not call it) — the seam the
	// singleflight-deduplication tests and the comasrv cache-efficiency
	// counters hang off.
	OnSimulate func(app string, cfg config.Machine)
	// SinkFactory, when non-nil, supplies an observability sink for each
	// machine this runner builds (instrumentation is proven not to
	// perturb results; see internal/obs). The factory is called from
	// worker goroutines, so it — and the sinks it returns, if shared —
	// must be safe for concurrent use.
	SinkFactory func(app string, cfg config.Machine) obs.Sink
	// SampleWindow, when positive, enables windowed counter sampling on
	// every machine this runner builds: results carry a Timeline of
	// per-window deltas (see obs.Sampler). Sampling is deterministic —
	// it observes only simulated time — so memoized results and -jobs
	// invariance are unaffected.
	SampleWindow engine.Time
	// Fidelity is applied to every configuration that does not pin its
	// own (the -fidelity flag of cmd/experiments and cmd/sweep lands
	// here); the zero value leaves configurations exact. The resolved
	// fidelity is part of the memo key, so one runner can hold exact and
	// sampled results side by side without collisions.
	Fidelity config.Fidelity
	// WrapSimulate, when non-nil, brackets each simulation actually
	// executed (memoized hits are not bracketed): it is called at start
	// and the closure it returns is called with the simulation's error
	// when it finishes. The seam comasrv's span tracing hangs off.
	// Called from worker goroutines; must be safe for concurrent use.
	WrapSimulate func(app string, cfg config.Machine) func(err error)

	mu      sync.Mutex
	traces  map[traceKey]*traceCell
	results map[runKey]*resultCell
	// tracePins counts outstanding matrix jobs per trace; runAll pins
	// before dispatch and releases as jobs finish, evicting the cached
	// trace at zero so driver runs don't retain every workload at once.
	tracePins map[traceKey]int
}

type runKey struct {
	app string
	cfg config.Machine
}

// traceKey identifies a generated trace: scaled drivers run the same
// workload at several machine sizes, and a trace is only valid for the
// processor count it was generated for.
type traceKey struct {
	app   string
	procs int
}

// traceCell and resultCell are singleflight slots: the first goroutine to
// claim the cell computes under its Once while latecomers block on the
// same Once and then read the settled value.
type traceCell struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

type resultCell struct {
	once sync.Once
	res  *machine.Result
	err  error
}

// NewRunner returns a Runner for the paper's 16-processor machine.
func NewRunner() *Runner {
	return &Runner{Procs: 16}
}

// ctx resolves the runner's simulation context.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// jobs resolves the worker-pool width.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.NumCPU()
}

func (r *Runner) traceCell(key traceKey) *traceCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = make(map[traceKey]*traceCell)
	}
	c, ok := r.traces[key]
	if !ok {
		c = new(traceCell)
		r.traces[key] = c
	}
	return c
}

func (r *Runner) resultCell(key runKey) *resultCell {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.results == nil {
		r.results = make(map[runKey]*resultCell)
	}
	c, ok := r.results[key]
	if !ok {
		c = new(resultCell)
		r.results[key] = c
	}
	return c
}

// Trace returns the (cached) reference trace of a workload at the
// runner's machine size.
func (r *Runner) Trace(app string) (*trace.Trace, error) {
	return r.TraceAt(app, r.Procs)
}

// TraceAt returns the (cached) trace of a workload at an explicit
// machine size (scaled drivers run several sizes through one runner).
func (r *Runner) TraceAt(app string, procs int) (*trace.Trace, error) {
	c := r.traceCell(traceKey{app: app, procs: procs})
	c.once.Do(func() {
		a, err := apps.ByName(app)
		if err != nil {
			c.err = err
			return
		}
		c.tr = a.Generate(procs)
	})
	return c.tr, c.err
}

// Run simulates one configuration, memoized and deduplicated: concurrent
// calls with the same key share one simulation. A config that does not
// pin its own processor count inherits the runner's machine size, so
// smaller-than-paper runners (tests use 8 processors) stay consistent
// with their traces.
func (r *Runner) Run(app string, cfg config.Machine) (*machine.Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = r.Procs
	}
	if cfg.Fidelity == (config.Fidelity{}) {
		cfg.Fidelity = r.Fidelity
	}
	c := r.resultCell(runKey{app: app, cfg: cfg})
	c.once.Do(func() {
		tr, err := r.TraceAt(app, cfg.Procs)
		if err != nil {
			c.err = err
			return
		}
		c.res, c.err = r.simulate(app, tr, cfg)
		if c.err == nil && r.Progress != nil {
			r.mu.Lock()
			fmt.Fprintf(r.Progress, "ran %-10s %dp/node mp=%-4s ways=%d dram=%.2g nc=%.2g bus=%.2g -> exec %v\n",
				app, cfg.ProcsPerNode, cfg.Pressure.Label, cfg.AMWays,
				cfg.DRAMBandwidth, cfg.NCBandwidth, cfg.BusBandwidth, c.res.ExecTime)
			r.mu.Unlock()
		}
	})
	return c.res, c.err
}

// RunTrace simulates one configuration over a caller-supplied trace
// instead of a registered workload — the comasrv trace-ingestion path
// (POST /v1/simulate with "trace_ref"). Results are not memoized here:
// the daemon's content-addressed store already deduplicates by request
// key, and a CLI caller holds the trace itself. cfg.Procs must match the
// trace. The simulation seams (OnSimulate, WrapSimulate, SinkFactory,
// sampling, fidelity default) behave exactly as in Run, with the app
// label "trace:<name>".
func (r *Runner) RunTrace(tr *trace.Trace, cfg config.Machine) (*machine.Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = tr.Procs
	}
	if cfg.Procs != tr.Procs {
		return nil, fmt.Errorf("trace:%s: trace has %d processors but the configuration asks for %d",
			tr.Name, tr.Procs, cfg.Procs)
	}
	if cfg.Fidelity == (config.Fidelity{}) {
		cfg.Fidelity = r.Fidelity
	}
	return r.simulate("trace:"+tr.Name, tr, cfg)
}

// simulate executes one run of tr (no caching; Run wraps it in a cell)
// through the simulation seams, labelled for them and for errors. A
// panic out of the machine becomes an error: simulations run on pool
// and daemon goroutines, where an unrecovered panic would end the
// process.
func (r *Runner) simulate(label string, tr *trace.Trace, cfg config.Machine) (res *machine.Result, err error) {
	if r.OnSimulate != nil {
		r.OnSimulate(label, cfg)
	}
	if r.WrapSimulate != nil {
		finish := r.WrapSimulate(label, cfg)
		defer func() { finish(err) }()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%s: simulation panic: %v", label, p)
		}
	}()
	m, err := machine.New(cfg.Params(tr.WorkingSet))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if r.SinkFactory != nil {
		m.SetSink(r.SinkFactory(label, cfg))
	}
	if r.SampleWindow > 0 {
		m.EnableSampling(r.SampleWindow)
	}
	res, err = m.RunContext(r.ctx(), tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	m.Release() // Result is value-detached; recycle the tag arrays
	return res, nil
}
