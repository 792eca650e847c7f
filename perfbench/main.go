// Command perfbench measures the simulator's own host-time performance
// (not the simulated cycles, which stay bit-identical) on three
// workloads, each run in its own process. See README.md for the
// metrics, the layers they belong to and why each workload exists.
//
//	bash perfbench/run.sh --workload seed-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured with tracing off; with --trace 1
// they are the per-layer ones, derived from spans the benchmark records
// around its calls into each layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// session is one set-up workload, ready for its timed phase.
type session interface {
	// clients is the number of closed-loop clients issuing ops.
	clients() int
	// op runs client c's k-th op, checks its output, and returns the
	// measured-region simulated instructions the op delivered. ot is
	// nil with tracing off.
	op(c, k int, ot *opTrace) (uint64, error)
	// layerCounters reports per-layer metrics that come from the
	// program's own counters rather than spans (nil when none apply).
	layerCounters() map[string]float64
	// close releases the session; any goroutine it started has exited
	// when close returns.
	close()
}

// workload names one input set and how to set it up.
type workload struct {
	name string
	// setups is how often set-up is repeated; setup_s is the median.
	setups int
	// prefix is how many ops per client the engine-count denominators
	// (engine.persists and friends) sum over, so they repeat exactly.
	prefix int
	setup  func(seed uint64) (session, error)
}

var workloads = []workload{
	{name: "seed-sweep", setups: 5, prefix: 30, setup: newSeedSweep},
	{name: "design-space", setups: 5, prefix: 36, setup: newDesignSpace},
	{name: "job-service", setups: 5, prefix: 15, setup: newJobService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: seed-sweep, design-space or job-service")
		seed    = flag.Uint64("seed", refSeed, "workload seed (1 is the reference seed)")
		seconds = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		spans   = flag.String("spans", "", "traced run: span output file (default .bench_build/spans/spans-<workload>-<seed>.jsonl)")
		repin   = flag.String("repin", "", "write the design-space reference-seed results to this file and exit")
	)
	flag.Parse()
	// The benchmark's load is pinned, never sized from the host; the Go
	// runtime gets the same two processors on any machine.
	runtime.GOMAXPROCS(2)

	if *repin != "" {
		if err := writeDesignRef(*repin); err != nil {
			fatalf("repin: %v", err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q (want seed-sweep, design-space or job-service)", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("want --seconds > 0 and --trace 0 or 1")
	}
	d := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)

	var out result
	var err error
	if *traced == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		}
		out, err = tracedRunPhase(w, *seed, d, path)
	} else {
		out, err = endToEnd(w, *seed, d)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opRecord is one finished op of a timed phase.
type opRecord struct {
	client, k int
	dur       time.Duration
	instr     uint64
	err       error
}

// phase is a timed phase's ops and what the host did meanwhile.
type phase struct {
	ops   []opRecord
	wall  time.Duration
	noise hostNoise
}

func (p phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// run drives s with closed-loop clients until d has passed: each client
// issues its next op only when the previous one has finished, and no
// op starts after the deadline. The phase ends when the last op does.
func run(s session, d time.Duration, tr *tracer) phase {
	before := sampleHost()
	deadline := before.wall.Add(d)
	var mu sync.Mutex
	var ops []opRecord
	var wg sync.WaitGroup
	for c := 0; c < s.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				var ot *opTrace
				if tr != nil {
					ot = &opTrace{t: tr, op: tr.newID()}
				}
				t0 := time.Now()
				instr, err := s.op(c, k, ot)
				t1 := time.Now()
				if ot != nil {
					tr.record(span{ID: ot.op, Op: ot.op, Name: "op",
						Attrs: map[string]float64{"client": float64(c), "k": float64(k)}}, t0, t1)
				}
				mu.Lock()
				ops = append(ops, opRecord{client: c, k: k, dur: t1.Sub(t0), instr: instr, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	after := sampleHost()
	p := phase{ops: ops, wall: after.wall.Sub(before.wall), noise: noiseBetween(before, after)}
	shown := 0
	for _, o := range p.ops {
		if o.err != nil && shown < 20 {
			fmt.Fprintf(os.Stderr, "op failed: client %d op %d: %v\n", o.client, o.k, o.err)
			shown++
		}
	}
	return p
}

// setUp repeats w's set-up n times and keeps the last session; the
// others are closed before the next starts.
func setUp(w workload, seed uint64, n int) (session, []float64, error) {
	var s session
	var times []float64
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		// Collect the previous repetition, so each repetition (and peak
		// RSS) sees one set-up's footprint, not the sum.
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.setup(seed); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	// The timed phase starts from a collected heap, not with set-up's
	// GC debt.
	runtime.GC()
	return s, times, nil
}

// endToEnd is the untraced run: set-up, then the timed phase.
func endToEnd(w workload, seed uint64, d time.Duration) (result, error) {
	s, setups, err := setUp(w, seed, w.setups)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	fmt.Printf("setup: %d runs %s s\n", len(setups), fmtList(setups))
	p := run(s, d, nil)
	fmt.Printf("host: %s\n", p.noise)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	var lat []float64
	var instr uint64
	for _, o := range p.ops {
		lat = append(lat, o.dur.Seconds()*1e3)
		if o.err == nil {
			instr += o.instr
		}
	}
	minstr := float64(instr) / 1e6
	t, ok := tailOf(lat)
	if !ok {
		fmt.Printf("note: only %d ops, op_ms_tail is the maximum\n", t.N)
	}
	failed := p.failed()
	attempted := len(p.ops)
	m := map[string]metric{
		"setup_s":           {median(setups), "s"},
		"sim_minstr_per_s":  {ratio(minstr, p.wall.Seconds()), "Minstr/s"},
		"cpu_ms_per_minstr": {ratio(p.noise.CPU.Seconds()*1e3, minstr), "ms"},
		"op_ms_p50":         {median(lat), "ms"},
		"op_ms_tail":        {t.Value, "ms"},
		"peak_rss_mb":       {rss, "MB"},
		"ok_frac":           {ratio(float64(attempted-failed), float64(attempted)), "frac"},
	}
	printMetrics(m, t)
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedRunPhase is the traced run. It first times an untraced phase
// of half the length on a fresh set-up, then the traced phase on
// another, and compares their per-op time over the ops both ran, which
// is the tracing overhead. The per-layer metrics come from the traced
// phase's spans.
func tracedRunPhase(w workload, seed uint64, d time.Duration, spansPath string) (result, error) {
	s, _, err := setUp(w, seed, 1)
	if err != nil {
		return result{}, err
	}
	plain := run(s, d/2, nil)
	s.close()

	if s, _, err = setUp(w, seed, 1); err != nil {
		return result{}, err
	}
	defer s.close()
	tr := newTracer()
	_, gc0 := runtimeTotals()
	p := run(s, d, tr)
	_, gc1 := runtimeTotals()
	fmt.Printf("host: %s\n", p.noise)
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	sp := tr.all()
	fmt.Printf("spans: %d written to %s\n", len(sp), spansPath)

	vals := layerMetrics(sp, w.prefix)
	vals["engine.gc_cycles"] = float64(gc1 - gc0)
	for k, v := range s.layerCounters() {
		vals[k] = v
	}
	overhead, common := tracingOverhead(plain, p)
	vals["tracing.overhead_frac"] = overhead

	m := make(map[string]metric, len(layerDefs))
	for _, def := range layerDefs {
		m[def.name] = metric{vals[def.name], def.unit}
	}
	printLayers(w.name, m)
	fmt.Printf("tracing overhead: traced per-op time %+.1f%% against the untraced phase, over %d common ops\n", overhead*100, common)
	attempted := len(plain.ops) + len(p.ops)
	failed := plain.failed() + p.failed()
	return result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracingOverhead compares the per-op time of the ops (client, k) that
// both phases ran: traced total over untraced total, minus one.
func tracingOverhead(plain, traced phase) (float64, int) {
	type key struct{ c, k int }
	base := make(map[key]time.Duration, len(plain.ops))
	for _, o := range plain.ops {
		base[key{o.client, o.k}] = o.dur
	}
	var a, b time.Duration
	n := 0
	for _, o := range traced.ops {
		if d, ok := base[key{o.client, o.k}]; ok {
			a += o.dur
			b += d
			n++
		}
	}
	return ratio(a.Seconds(), b.Seconds()) - 1, n
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printMetrics prints the end-to-end metrics, the tail with its
// percentile and op count.
func printMetrics(m map[string]metric, t tail) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if n == "op_ms_tail" {
			note = t.String() + " ops"
		}
		fmt.Printf("  %-20s %14.4f %-9s %s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// newRand returns the generator for one stream of a seed's draws.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// mixSeed derives a non-zero trace seed from the workload seed and a
// profile's own seed (splitmix64).
func mixSeed(seed, x uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func writeDesignRef(path string) error {
	ref, err := pinDesignRef()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
