package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// renderAll runs every inspect renderer into one buffer — the superset of
// what cmd/inspect emits.
func renderAll(t *testing.T, rows []InspectRow) string {
	t.Helper()
	var sb strings.Builder
	for _, render := range []func(*strings.Builder) error{
		func(w *strings.Builder) error { return WriteUtilization(w, rows) },
		func(w *strings.Builder) error { return WriteUtilizationCSV(w, rows) },
		func(w *strings.Builder) error { return WriteTransitions(w, rows) },
		func(w *strings.Builder) error { return WriteTransitionsCSV(w, rows) },
		func(w *strings.Builder) error { return WriteProtocol(w, rows) },
		func(w *strings.Builder) error { return WriteProtocolCSV(w, rows) },
		func(w *strings.Builder) error { return WriteTimeline(w, rows) },
		func(w *strings.Builder) error { return WriteTimelineCSV(w, rows) },
	} {
		if err := render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// Inspect output must be byte-identical regardless of worker-pool width —
// the cmd/inspect determinism contract.
func TestInspectJobsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	apps := []string{"fft"}
	cfgs := []config.Machine{
		config.Baseline(1, config.MP50),
		config.Baseline(4, config.MP87),
	}
	run := func(jobs int) string {
		r := NewRunner()
		r.Procs = 8
		r.Jobs = jobs
		// Sampling on, so the timeline renderers are part of the
		// byte-identity contract too.
		r.SampleWindow = 100000
		rows, err := r.Inspect(apps, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(apps)*len(cfgs) {
			t.Fatalf("rows = %d, want %d", len(rows), len(apps)*len(cfgs))
		}
		// App-major, config-minor order.
		if rows[0].Cfg.ProcsPerNode != 1 || rows[1].Cfg.ProcsPerNode != 4 {
			t.Fatalf("row order broken: %s then %s", rows[0].Label, rows[1].Label)
		}
		return renderAll(t, rows)
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatal("inspect output differs between -jobs 1 and -jobs 8")
	}
	// The output actually contains the advertised sections.
	for _, want := range []string{"resource", "from\\to", "app,cfg,counter,value", "bus", "dram0", "bus util", "app,cfg,window,start_ns"} {
		if !strings.Contains(serial, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// The inspect tables, wait-distribution column included, for the two
// cmd/inspect runs CI checks: fft at 8 processors on the bus (1 and 4
// processors per node) and on a 2-cluster ring, all at 50% MP.
func TestInspectGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	ring := config.Baseline(2, config.MP50)
	ring.Topology = "ring"
	ring.Clusters = 2
	cfgs := []config.Machine{config.Baseline(1, config.MP50), config.Baseline(4, config.MP50), ring}
	rows, err := golden8().Inspect([]string{"fft"}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "inspect.golden", renderAll(t, rows))
}

func TestCfgLabel(t *testing.T) {
	c := config.Baseline(4, config.MP87)
	if got := CfgLabel(c); got != "4p/node mp=87% 4way" {
		t.Fatalf("label = %q", got)
	}
	c.DRAMBandwidth = 2
	c.BusBandwidth = 0.5
	if got := CfgLabel(c); got != "4p/node mp=87% 4way dram=2x bus=0.5x" {
		t.Fatalf("label = %q", got)
	}
}
