// Command perfbench is SpeakQL's benchmark: it runs one workload against an
// in-process httpapi.Server (configured as speakql-server configures it,
// served through Handler() with no listening socket), checks every answer,
// and prints the workload's metrics as one JSON object on its last line.
//
//	perfbench --workload oneshot-paper|tenant-mix \
//	    --seed N --seconds S --trace 0|1 [--dir DIR]
//
// Inputs are generated before timing from the repo's own generators and
// the seed; the program only sees the generated transcripts. Every
// workload is a closed loop with one client. --trace 0 prints the
// end-to-end metrics; --trace 1 runs the same inputs traced and prints the
// per-layer metrics (see trace.go). run.py builds and runs it; steady.py
// repeats it over seeds and prints each metric's spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase accumulates one timed phase's outcomes.
type phase struct {
	start     time.Time
	lat       []float64       // per request, ms
	ends      []time.Duration // per request, since start
	attempted int
	failed    int
	failures  []string // the first few failed requests, for stderr
	scored    int      // dictated queries scored for accuracy
	exact     int
	wrr       float64
	dicts     int // streamed dictations
	elapsed   time.Duration
}

// record counts one request and its latency.
func (ph *phase) record(d time.Duration) {
	ph.lat = append(ph.lat, ms(d))
	ph.ends = append(ph.ends, time.Since(ph.start))
	ph.attempted++
}

// fail marks the last recorded request failed and drops its latency
// sample: a fast error or shed must not pass for a fast answer.
func (ph *phase) fail(what string) {
	ph.lat = ph.lat[:len(ph.lat)-1]
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, what)
	}
}

// err reports failed requests as an error: every workload must serve
// every request at full fidelity.
func (ph *phase) err() error {
	if ph.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d requests failed, the first: %s", ph.failed, ph.attempted, ph.failures[0])
}

// score records one dictated query's top-1 accuracy.
func (ph *phase) score(top1SQL string, truth []string) {
	exact, wrr := accuracy(top1SQL, truth)
	ph.scored++
	ph.wrr += wrr
	if exact {
		ph.exact++
	}
}

// workload is one benchmark workload.
type workload interface {
	// prepare builds the inputs from the seed, before any timing, and
	// feeds the request sequence into h for the checksum.
	prepare(seed int64, seconds int, h hash.Hash64) error
	// setups is how many times a run sets up, reporting the median.
	setups() int
	// setup builds a fresh server (engine, index, registry, tenants) with
	// its tenant state under dir.
	setup(dir string) (*server, error)
	// warm sends the warm-up requests, disjoint from the timed ones.
	warm(s *server) error
	// run drives the timed sequence for d (traced when t is non-nil),
	// checking answers as they arrive.
	run(s *server, ph *phase, t *tracer, d time.Duration) error
	// check runs the checks that need the whole run's output.
	check(s *server, ph *phase) error
	// describe prints the workload's input make-up and measured shares.
	describe(w io.Writer, s *server, ph *phase, before, after apiStats)
}

var workloads = map[string]func() workload{
	"oneshot-paper": func() workload { return &oneshot{} },
	"tenant-mix":    func() workload { return &tenantMix{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: oneshot-paper or tenant-mix")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for tenant catalogs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := runWorkload(mk(), *name, *seed, *seconds, *trace == 1, *dir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if res == nil {
			return 1
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, merr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload prepares, sets up, warms, measures and checks one workload.
// Traced, it then runs the same inputs again on a fresh server with every
// request replayed below the handler, and reports the per-layer metrics
// of both phases. A failed request or a check violation returns the result
// with Correct false and the error.
func runWorkload(w workload, name string, seed int64, seconds int, traced bool, dir string, out io.Writer) (*result, error) {
	runDir := filepath.Join(dir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	h := fnv.New64a()
	if err := w.prepare(seed, seconds, h); err != nil {
		return nil, fmt.Errorf("prepare inputs: %w", err)
	}
	fmt.Fprintf(out, "workload %s seed %d: request sequence checksum %016x\n", name, seed, h.Sum64())

	var setupS []float64
	var s *server
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for i := 0; i < w.setups(); i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		if s, err = w.setup(filepath.Join(runDir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	d := time.Duration(seconds) * time.Second
	m, err := measure(w, s, nil, d, out)
	if err != nil || !traced {
		return m.result(m.endToEnd(setupS)), err
	}

	// The traced phase starts from a fresh server, so state the untraced
	// phase left behind (memo, caches, sessions, catalog writes) cannot
	// answer for it. The paper-scale server holds no such state and is too
	// slow to rebuild.
	if w.setups() > 1 {
		s.close()
		if s, err = w.setup(filepath.Join(runDir, "traced")); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	t := newTracer(s, runDir)
	defer t.stop()
	mt, err := measure(w, s, t, d, io.Discard)
	res := mt.result(t.layerMetrics(m, mt))
	if werr := t.write(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); werr != nil && err == nil {
		err = fmt.Errorf("write spans: %w", werr)
	}
	return res, err
}

// measurement is one measured phase with the server's counters and the
// runtime's statistics around it.
type measurement struct {
	ph            *phase
	before, after apiStats
	mem0, mem1    runtime.MemStats // around the phase
	liveHeap      uint64           // after a forced GC at the phase's end
	err           error
}

// measure warms the server, runs one timed phase and its checks, and
// reports the phase to out. err is a setup or check failure; the
// measurement is valid either way.
func measure(w workload, s *server, t *tracer, d time.Duration, out io.Writer) (*measurement, error) {
	m := &measurement{ph: &phase{}}
	if err := w.warm(s); err != nil {
		return m, fmt.Errorf("warm-up: %w", err)
	}
	var err error
	if m.before, err = s.stats(); err != nil {
		return m, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m.mem0)
	m.ph.start = time.Now()
	err = w.run(s, m.ph, t, d)
	m.ph.elapsed = time.Since(m.ph.start)
	runtime.ReadMemStats(&m.mem1)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.liveHeap = live.HeapAlloc
	var serr error
	if m.after, serr = s.stats(); err == nil {
		err = serr
	}
	if err == nil {
		err = m.ph.err()
	}
	if err == nil {
		err = w.check(s, m.ph)
	}
	if _, ok := percentile(m.ph.lat, 0.99); !ok && err == nil && t == nil {
		err = fmt.Errorf("%d requests are too few for a p99 with ten samples beyond it", len(m.ph.lat))
	}
	fmt.Fprintf(out, "requests attempted %d failed %d in %.2fs\n", m.ph.attempted, m.ph.failed, m.ph.elapsed.Seconds())
	for _, f := range m.ph.failures {
		fmt.Fprintf(out, "failed: %s\n", f)
	}
	w.describe(out, s, m.ph, m.before, m.after)
	m.err = err
	return m, err
}

// result wraps metrics with the phase's request counts.
func (m *measurement) result(metrics map[string]metric) *result {
	return &result{Correct: m.err == nil, Attempted: m.ph.attempted, Failed: m.ph.failed, Metrics: metrics}
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (m *measurement) endToEnd(setupS []float64) map[string]metric {
	ph := m.ph
	p99, _ := percentile(ph.lat, 0.99)
	scored := float64(max(ph.scored, 1))
	return map[string]metric{
		"setup_s":          {median(setupS), "s"},
		"live_heap_mb":     {float64(m.liveHeap) / (1 << 20), "MB"},
		"latency_p50_ms":   {median(ph.lat), "ms"},
		"latency_p99_ms":   {p99, "ms"},
		"throughput_ops_s": {m.throughput(), "1/s"},
		"top1_exact":       {float64(ph.exact) / scored, "fraction"},
		"top1_wrr":         {ph.wrr / scored, "fraction"},
	}
}

// throughput is requests completed per second of the phase.
func (m *measurement) throughput() float64 {
	return float64(m.ph.attempted-m.ph.failed) / m.ph.elapsed.Seconds()
}

// count is a counter's delta over the phase.
func (m *measurement) count(name string) int64 { return delta(m.before, m.after, name) }

// hashFields feeds one request's fields into the checksum.
func hashFields(h hash.Hash64, fields ...string) {
	for _, f := range fields {
		_, _ = io.WriteString(h, f)
		_, _ = h.Write([]byte{0})
	}
	_, _ = h.Write([]byte{'\n'})
}
