package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/trace"
)

// batchSpec is one study cmd/experiments prints: the artifacts it
// renders, the fidelity it runs at, and the warm-up simulation that set-up
// runs before timing starts.
type batchSpec struct {
	artifacts []string
	fidelity  config.Fidelity
	warmApp   string
	warmCfg   config.Machine
}

// paperExact is `cmd/experiments -jobs 2`: every default artifact, 292
// exact simulations at 16 processors on the bus.
func paperExact(r *run) error {
	return runBatch(r, batchSpec{
		artifacts: experiments.Artifacts(),
		warmApp:   "fft",
		warmCfg:   config.Baseline(1, config.MP50),
	})
}

// scaledSampledRing is `cmd/experiments -jobs 2 -only fig2scaled
// -fidelity sampled`: 64 and 128 processors on the ring of clusters.
func scaledSampledRing(r *run) error {
	warm := config.Baseline(1, config.MP6)
	warm.Procs = 64
	warm.ScalePressure = true
	warm.Topology = machine.TopologyRing
	warm.Clusters = 16
	return runBatch(r, batchSpec{
		artifacts: []string{"fig2scaled"},
		fidelity:  config.Fidelity{Mode: "sampled"},
		warmApp:   "fft",
		warmCfg:   warm,
	})
}

// simCounts are the simulated statistics summed over every simulation of
// a pass. They are exact: any change that only speeds the simulator up
// leaves every one of them identical.
type simCounts struct {
	Refs           int64 `json:"refs"`
	SLCMisses      int64 `json:"slc_misses"`
	ReadNodeMisses int64 `json:"read_node_misses"`
	AMTransitions  int64 `json:"am_transitions"`
	BusBusyNs      int64 `json:"bus_busy_ns"`
	BusWaitNs      int64 `json:"bus_wait_ns"`
	LinkBusyNs     int64 `json:"link_busy_ns"`
	ExecNs         int64 `json:"exec_ns"`
	FastRefs       int64 `json:"fast_refs"`
	TotalRefs      int64 `json:"total_refs"`
}

// add accumulates one simulation's result over a trace of refs data
// references.
func (c *simCounts) add(res *machine.Result, refs int64) {
	c.Refs += refs
	c.SLCMisses += res.SLCMisses
	c.ReadNodeMisses += res.ReadNodeMisses
	c.AMTransitions += res.Protocol.TransitionTotal()
	c.ExecNs += int64(res.ExecTime)
	for _, u := range res.Resources {
		switch {
		case u.Name == "bus" || hasPrefixDigits(u.Name, "cbus"):
			c.BusBusyNs += u.BusyNs
			c.BusWaitNs += u.WaitNs
		case hasPrefixDigits(u.Name, "link"):
			c.LinkBusyNs += u.BusyNs
		}
	}
	if f := res.Fidelity; f != nil {
		c.FastRefs += f.FastRefs
		c.TotalRefs += f.TotalRefs
	}
}

// hasPrefixDigits reports whether name is prefix followed by a number
// (the machine names ring resources cbus0, link3, ...).
func hasPrefixDigits(name, prefix string) bool {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	for _, c := range name[len(prefix):] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func (c simCounts) report(r *run) {
	r.set("sim.refs", float64(c.Refs), "count")
	r.set("sim.slc_misses", float64(c.SLCMisses), "count")
	r.set("sim.read_node_misses", float64(c.ReadNodeMisses), "count")
	r.set("sim.am_transitions", float64(c.AMTransitions), "count")
	r.set("sim.bus_busy_ns", float64(c.BusBusyNs), "sim_ns")
	r.set("sim.bus_wait_ns", float64(c.BusWaitNs), "sim_ns")
	r.set("sim.link_busy_ns", float64(c.LinkBusyNs), "sim_ns")
	r.set("sim.exec_ns", float64(c.ExecNs), "sim_ns")
	share := 0.0
	if c.TotalRefs > 0 {
		share = float64(c.FastRefs) / float64(c.TotalRefs)
	}
	r.set("fidelity.fast_ref_share", share, "ratio")
}

// batchRef is the recorded reference of one batch workload: the SHA-256
// of the bytes cmd/experiments prints with the same settings, per
// artifact and whole, and the pass's simulated counts.
type batchRef struct {
	SHA256    string            `json:"sha256"`
	Artifacts map[string]string `json:"artifacts"`
	Sim       simCounts         `json:"sim"`
}

//go:embed reference.json
var referenceJSON []byte

// A run sets up at least setupRounds times and for at least setupTime in
// all, and reports the median, so one disturbed set-up does not move
// setup_s and a set-up of a few tens of milliseconds is sampled often
// enough to repeat from run to run.
const (
	setupRounds = 5
	setupTime   = 1500 * time.Millisecond
)

// moreSetups reports whether a run with these set-up times, in seconds,
// sets up again.
func moreSetups(setups []float64) bool {
	var total float64
	for _, s := range setups {
		total += s
	}
	return len(setups) < setupRounds || total < setupTime.Seconds()
}

const referencePath = "perfbench/reference.json"

// simSpan is one simulation the Runner executed, bracketed through its
// WrapSimulate seam.
type simSpan struct {
	app string
	cfg config.Machine
	iv  interval
}

// pass is one full rendering of a batch workload's artifacts on a fresh
// Runner.
type pass struct {
	runner  *experiments.Runner
	start   time.Time
	end     time.Time
	out     []byte
	digests map[string]string
	spans   []simSpan
}

func (p *pass) wall() time.Duration { return p.end.Sub(p.start) }

func runPass(r *run, spec batchSpec) (*pass, error) {
	rn := experiments.NewRunner()
	rn.Jobs = r.jobs
	rn.Fidelity = spec.fidelity
	p := &pass{runner: rn, digests: map[string]string{}}
	var mu sync.Mutex
	rn.WrapSimulate = func(app string, cfg config.Machine) func(error) {
		start := time.Now()
		return func(error) {
			end := time.Now()
			mu.Lock()
			p.spans = append(p.spans, simSpan{app: app, cfg: cfg, iv: interval{start, end}})
			mu.Unlock()
		}
	}
	var buf bytes.Buffer
	p.start = time.Now()
	for _, name := range spec.artifacts {
		n := buf.Len()
		if err := experiments.RenderArtifact(&buf, rn, name, false); err != nil {
			return nil, fmt.Errorf("artifact %s: %w", name, err)
		}
		p.digests[name] = digest(buf.Bytes()[n:])
	}
	p.end = time.Now()
	p.out = buf.Bytes()
	if len(p.spans) == 0 {
		return nil, fmt.Errorf("the pass executed no simulation")
	}
	sort.Slice(p.spans, func(i, j int) bool { return p.spans[i].iv.start.Before(p.spans[j].iv.start) })
	return p, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// genKey names one generated input trace.
type genKey struct {
	app   string
	procs int
}

// inputs lists the traces a pass simulated against, in a fixed order.
func (p *pass) inputs() []genKey {
	seen := map[genKey]bool{}
	var keys []genKey
	for _, s := range p.spans {
		k := genKey{s.app, s.cfg.Procs}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].procs != keys[j].procs {
			return keys[i].procs < keys[j].procs
		}
		return keys[i].app < keys[j].app
	})
	return keys
}

// generate times one Generate call per input trace and counts each
// trace's data references.
func generate(keys []genKey) (lat []float64, refs map[genKey]int64, total time.Duration, err error) {
	refs = map[genKey]int64{}
	for _, k := range keys {
		a, err := apps.ByName(k.app)
		if err != nil {
			return nil, nil, 0, err
		}
		t := time.Now()
		tr := a.Generate(k.procs)
		d := time.Since(t)
		total += d
		lat = append(lat, ms(d))
		refs[k] = dataRefs(tr)
	}
	return lat, refs, total, nil
}

// dataRefs counts a trace's loads and stores.
func dataRefs(tr *trace.Trace) int64 {
	var n int64
	for i := range tr.Streams {
		st := &tr.Streams[i]
		for j := 0; j < st.Len(); j++ {
			if k := st.Kind(j); k == trace.Read || k == trace.Write {
				n++
			}
		}
	}
	return n
}

// counts sums the simulated statistics of a pass from its Runner's
// memoized results.
func (p *pass) counts(refs map[genKey]int64) (simCounts, error) {
	var c simCounts
	for _, s := range p.spans {
		res, err := p.runner.Run(s.app, s.cfg)
		if err != nil {
			return c, err
		}
		c.add(res, refs[genKey{s.app, s.cfg.Procs}])
	}
	return c, nil
}

// memoHits times the Runner's memoized answer for every configuration
// the pass simulated, repeated until there are at least 1000 samples so
// p99 has ten beyond it. Each sample is the fastest of five rounds of 64
// calls, so an interruption does not count, in milliseconds per call.
func (p *pass) memoHits() ([]float64, error) {
	const rounds, calls = 5, 64
	var out []float64
	var per [rounds]float64
	for len(out) < 1000 {
		for _, s := range p.spans {
			for i := range per {
				t := time.Now()
				for j := 0; j < calls; j++ {
					if _, err := p.runner.Run(s.app, s.cfg); err != nil {
						return nil, err
					}
				}
				per[i] = ms(time.Since(t)) / calls
			}
			sort.Float64s(per[:])
			out = append(out, per[0])
		}
	}
	return out, nil
}

// check compares a pass with the recorded reference: one operation per
// artifact digest and one for the simulated counts.
func (p *pass) check(r *run, ref batchRef, c simCounts, artifacts []string) {
	for _, name := range artifacts {
		r.rep.Attempted++
		if got, want := p.digests[name], ref.Artifacts[name]; got != want {
			r.fail("%s: rendered bytes sha256 %s, want %s", name, got, want)
		}
	}
	r.rep.Attempted++
	if got := digest(p.out); got != ref.SHA256 {
		r.fail("whole output sha256 %s, want %s", got, ref.SHA256)
	} else if c != ref.Sim {
		r.fail("sim counts %+v, want %+v", c, ref.Sim)
	}
}

// setupBatch is the batch workloads' set-up: a fresh Runner and one
// warm-up simulation, so lazy initialization is not timed in the pass.
func setupBatch(r *run, spec batchSpec) (time.Duration, error) {
	t := time.Now()
	rn := experiments.NewRunner()
	rn.Jobs = r.jobs
	rn.Fidelity = spec.fidelity
	if _, err := rn.Run(spec.warmApp, spec.warmCfg); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(t), nil
}

func loadRef(workload string, recording bool) (batchRef, error) {
	refs := map[string]batchRef{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return batchRef{}, fmt.Errorf("reference.json: %w", err)
	}
	ref, ok := refs[workload]
	if !ok && !recording {
		return ref, fmt.Errorf("reference.json has no entry for %s", workload)
	}
	return ref, nil
}

// record writes this pass as the workload's reference, keeping the
// other workloads' entries in the file.
func record(workload string, p *pass, c simCounts) error {
	refs := map[string]batchRef{}
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &refs); err != nil {
		return fmt.Errorf("%s: %w", referencePath, err)
	}
	refs[workload] = batchRef{SHA256: digest(p.out), Artifacts: p.digests, Sim: c}
	b, err = json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}

func runBatch(r *run, spec batchSpec) error {
	ref, err := loadRef(r.workload, r.record)
	if err != nil {
		return err
	}
	var setups []float64
	for moreSetups(setups) {
		d, err := setupBatch(r, spec)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	if r.trace {
		return tracedBatch(r, spec, ref)
	}

	// A batch run measures exactly one pass, the unit a reader waits
	// for, whatever --seconds says: a faster or slower pass never
	// changes the work a run measures.
	p, err := runPass(r, spec)
	if err != nil {
		return err
	}
	var misses []float64
	for _, s := range p.spans {
		misses = append(misses, ms(s.iv.end.Sub(s.iv.start)))
	}
	hits, err := p.memoHits()
	if err != nil {
		return err
	}
	// Input ingestion: generating every trace the pass used, timed one
	// call at a time after the pass, in rounds until there are at least
	// 100 samples so p90 has ten beyond it.
	ingest, refs, _, err := generate(p.inputs())
	if err != nil {
		return err
	}
	c, err := p.counts(refs)
	if err != nil {
		return err
	}
	if r.record {
		r.rep.Attempted++
		return record(r.workload, p, c)
	}
	p.check(r, ref, c, spec.artifacts)
	for len(ingest) < 100 {
		more, _, _, err := generate(p.inputs())
		if err != nil {
			return err
		}
		ingest = append(ingest, more...)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", p.wall().Seconds(), "s")
	r.set("peak_rss_mib", rss, "MiB")
	r.setLatencies("hit", hits, 0.99, "p99")
	r.setLatencies("miss", misses, 0.9, "p90")
	r.setLatencies("ingest", ingest, 0.9, "p90")
	r.note("hits=%d (memoized Runner answers) misses=%d (executed simulations) ingests=%d (generated traces)",
		len(hits), len(misses), len(ingest))
	return nil
}

// tracedBatch is the traced run of a batch workload: one plain pass,
// then the same pass under a CPU profile with its spans kept, then timed
// trace generation. It reports the per-layer metrics.
func tracedBatch(r *run, spec batchSpec, ref batchRef) error {
	plain, err := runPass(r, spec)
	if err != nil {
		return err
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	before := readCPUClasses()
	p, err := runPass(r, spec)
	after := readCPUClasses()
	base := fmt.Sprintf("%s/%s-seed%d", outDir, r.workload, r.seed)
	shares, perr := prof.stop(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	_, refs, genTime, err := generate(p.inputs())
	if err != nil {
		return err
	}
	var genRefs int64
	for _, n := range refs {
		genRefs += n
	}
	c, err := p.counts(refs)
	if err != nil {
		return err
	}
	p.check(r, ref, c, spec.artifacts)
	if err := writeSpans(base+".spans.jsonl", p); err != nil {
		return err
	}

	var simNs int64
	for _, s := range p.spans {
		simNs += int64(s.iv.end.Sub(s.iv.start))
	}
	wall := p.wall()
	setSlotSplit(r, simNs, p.start, p.end)
	r.set("experiments.simulations", float64(len(p.spans)), "count")
	r.set("machine.ns_per_ref", float64(simNs)/float64(c.Refs), "ns")
	r.set("apps.gen_ns_per_ref", float64(genTime)/float64(genRefs), "ns")
	r.set("tracing.overhead_ms", ms(wall-plain.wall()), "ms")
	setLayerShares(r, shares, gcShare(before, after))
	c.report(r)
	setServeZero(r)
	r.note("untraced wall_s=%.3f traced wall_s=%.3f; profile and spans in %s.*",
		plain.wall().Seconds(), wall.Seconds(), base)
	return nil
}

// setSlotSplit reports how the simulation slots spent the window [from,
// to]: experiments.simulate_s is the simulate spans' total per slot,
// experiments.self_s the rest of the window (trace generation, waiting at
// barriers, rendering). self_s is defined as the window minus simulate_s,
// so the two add up to the traced wall time by construction; it is not an
// output check.
func setSlotSplit(r *run, simNs int64, from, to time.Time) {
	simulate := time.Duration(simNs / int64(r.jobs))
	r.set("experiments.simulate_s", simulate.Seconds(), "s")
	r.set("experiments.self_s", (to.Sub(from) - simulate).Seconds(), "s")
}

// writeSpans writes a traced pass's simulate spans, one JSON object per
// line, with times relative to the pass start.
func writeSpans(path string, p *pass) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range p.spans {
		enc.Encode(map[string]any{
			"name":     "simulate",
			"app":      s.app,
			"cfg":      experiments.CfgLabel(s.cfg),
			"procs":    s.cfg.Procs,
			"start_ns": s.iv.start.Sub(p.start).Nanoseconds(),
			"dur_ns":   s.iv.end.Sub(s.iv.start).Nanoseconds(),
		})
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// setLayerShares reports each layer's share of the traced phase's CPU
// profile and the garbage collector's share of busy CPU time.
func setLayerShares(r *run, shares map[string]float64, gc float64) {
	const pkg = "repro/internal/"
	r.set("apps.cpu_share", cpuShare(shares, pkg+"apps"), "ratio")
	r.set("trace.cpu_share", cpuShare(shares, pkg+"trace"), "ratio")
	r.set("machine.cpu_share", cpuShare(shares, pkg+"machine"), "ratio")
	r.set("cache.cpu_share", cpuShare(shares, pkg+"cache"), "ratio")
	r.set("coma.cpu_share", cpuShare(shares, pkg+"coma"), "ratio")
	r.set("engine.cpu_share", cpuShare(shares, pkg+"engine"), "ratio")
	r.set("experiments.cpu_share", cpuShare(shares, pkg+"experiments"), "ratio")
	r.set("server.cpu_share", cpuShare(shares, pkg+"server")-cpuShare(shares, pkg+"server/store"), "ratio")
	r.set("store.cpu_share", cpuShare(shares, pkg+"server/store"), "ratio")
	r.set("obs.cpu_share", cpuShare(shares, pkg+"obs"), "ratio")
	r.set("runtime.gc_cpu_share", gc, "ratio")
}
