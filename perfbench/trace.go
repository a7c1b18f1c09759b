package main

// trace.go is the traced run (--trace 1). Every served request is timed as
// a root span around Handler().ServeHTTP; afterwards the benchmark replays
// the same inputs through each layer's public function and times each call
// from outside as a child span. Replays run on twin engines and components
// with no search cache, and a replayed call that needs a search result is
// handed the result of the benchmark's own replayed trie search through a
// one-shot cache — so no replay is answered from a cache the served request
// filled, and the trie is searched twice per request rather than once per
// layer. For a one-shot correction that search is the request's child, not
// the structure call's, because the structure and core replays never run
// it; a dictation's structure replay runs its own prefix search, so there
// the search is the structure call's child.
//
// A span's self time is its duration minus its children's durations. Each
// per-layer metric is taken from the spans of the workload's own requests;
// a layer those requests never reach (the stream path on one-shot
// workloads, dry runs without validation, registry loads and updates
// without tenant traffic) reports 0.
//
// A traced run first measures the workload untraced, exactly as --trace 0
// does; its /api/stats counter deltas give the per-layer counts, and the
// runtime's statistics the GC and allocation figures, free of replay work.
// The traced phase then runs the same inputs on a fresh server. Counters
// captured through the obs registry's export sink while a traced request
// runs (there is one client, so they are that request's) tell its replays
// what it did: a memo hit, a search-cache hit, a cold load. The tracing
// overhead is the traced phase's end-to-end figures against the untraced
// phase's.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"speakql/internal/core"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/registry"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// span is one timed call. Parent 0 marks a request's root span (Name
// "http.*").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the run's spans in memory and the counters captured in
// request windows.
type tracer struct {
	t0    time.Time
	req   int // current request id
	spans []span

	sink *captureSink

	searchStats trieindex.Stats // summed over replayed trie searches
	searches    int

	twinComp *structure.Component
	seeded   *replayCache
	twins    map[*literal.Catalog]twin

	replayDir string // where replay registries are opened
	replayN   int
}

// newTracer starts tracing s; replay registries are opened under dir.
func newTracer(s *server, dir string) *tracer {
	rc := &replayCache{}
	comp := s.twinComponent()
	comp.SetSearchCache(rc)
	t := &tracer{
		t0: time.Now(), sink: &captureSink{counts: map[string]int64{}},
		twinComp: comp, seeded: rc,
		twins: map[*literal.Catalog]twin{}, replayDir: dir,
	}
	obs.Default().SetSink(t.sink)
	return t
}

// stop detaches the capture sink.
func (t *tracer) stop() { obs.Default().SetSink(nil) }

// time runs f as a span under parent and returns the span's id.
func (t *tracer) time(name string, parent int, f func()) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: t.req,
		Name: name, Start: int64(start), End: int64(end)})
	return len(t.spans)
}

// request runs one served request as a root span and returns the
// counters captured in its window, which tell the replays what the request
// did (memo hit, search cache hit, cold load).
func (t *tracer) request(name string, f func()) (int, map[string]int64) {
	t.req++
	t.sink.begin()
	id := t.time(name, 0, f)
	return id, t.sink.end()
}

// captureSink is the obs export sink: while a request window is open it
// sums every counter increment, and notes whether the window's first
// search-cache lookup (the outer query's) hit.
type captureSink struct {
	on       atomic.Bool
	mu       sync.Mutex
	counts   map[string]int64
	firstHit int // -1 no lookup yet, 0 miss, 1 hit
}

// firstCacheHit is the pseudo-counter end reports for a first lookup hit.
const firstCacheHit = "bench.first_cache_hit"

func (c *captureSink) Span(string, time.Duration) {}

func (c *captureSink) Count(name string, d int64) {
	if !c.on.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[name] += d
	if c.firstHit < 0 && (name == "cache.search_hits" || name == "cache.search_misses") {
		c.firstHit = 0
		if name == "cache.search_hits" {
			c.firstHit = 1
		}
	}
}

func (c *captureSink) begin() {
	c.mu.Lock()
	clear(c.counts)
	c.firstHit = -1
	c.mu.Unlock()
	c.on.Store(true)
}

func (c *captureSink) end() map[string]int64 {
	c.on.Store(false)
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counts)+1)
	for k, v := range c.counts {
		out[k] = v
	}
	if c.firstHit == 1 {
		out[firstCacheHit] = 1
	}
	return out
}

// replayCache is the twin component's search cache: it answers the first
// lookup after seed with the benchmark's replayed search result and misses
// otherwise (the nested inner query still searches for real).
type replayCache struct {
	rs   []trieindex.Result
	st   trieindex.Stats
	full bool
}

func (c *replayCache) seed(rs []trieindex.Result, st trieindex.Stats) {
	c.rs, c.st, c.full = rs, st, true
}

func (c *replayCache) Get(string) ([]trieindex.Result, trieindex.Stats, bool) {
	if !c.full {
		return nil, trieindex.Stats{}, false
	}
	c.full = false
	return c.rs, c.st, true
}

func (c *replayCache) Put(string, []trieindex.Result, trieindex.Stats) {}

// twinEngine is an uncached engine over a tenant's catalog, configured as
// the registry configures tenant engines (the seed keeps the server's
// validation against the demo database).
func (t *tracer) twinEngine(s *server, ten *registry.Tenant) twin {
	if tw, ok := t.twins[ten.Catalog]; ok {
		return tw
	}
	tw := twin{eng: core.NewEngineWithComponent(t.twinComp, ten.Catalog, 5), db: s.db}
	if ten.ID != s.reg.SeedID() {
		tw.db = sqlengine.NewSchemaDatabase(ten.ID, ten.Catalog.Tables(), ten.Catalog.Attributes())
	}
	if mode := ten.Engine.ValidationMode(); mode != core.ValidationOff {
		vcfg := s.vcfg
		vcfg.Mode = mode
		tw.eng.SetValidation(vcfg, tw.db)
	}
	t.twins[ten.Catalog] = tw
	return tw
}

// twin is a tenant's uncached replay engine and the database its
// candidates are dry-run against when the engine validates.
type twin struct {
	eng *core.Engine
	db  *sqlengine.Database
}

// replayCorrect replays one served POST /api/correct below the handler.
// got holds the counters captured in the request's window.
func (t *tracer) replayCorrect(s *server, root int, tenantID, transcript string, k int, masked []string, got map[string]int64) {
	ten := t.replayAcquire(s, root, tenantID, got)
	if ten == nil || got["server.memo_hit"]+got["server.memo_inflight_join"] > 0 {
		return // answered from the memo: nothing below the handler ran
	}
	ix := s.eng.StructureComponent().Index()
	var rs []trieindex.Result
	var st trieindex.Stats
	if got[firstCacheHit] == 1 {
		// The served search was a cache hit: fetch the result untimed so
		// the replays below run without a search, as the request did.
		rs, st = ix.SearchTopK(masked, k, trieindex.Options{})
	} else {
		t.time("trieindex.search", root, func() { rs, st = ix.SearchTopK(masked, k, trieindex.Options{}) })
		t.addSearch(st)
	}
	tw := t.twinEngine(s, ten)
	ctx, cancel := context.WithTimeout(context.Background(), httpapi.DefaultRequestTimeout)
	defer cancel()
	var out core.Output
	t.seeded.seed(rs, st)
	coreID := t.time("core.correct", root, func() { out = tw.eng.CorrectTopKContext(ctx, transcript, k) })
	var structs []structure.Result
	t.seeded.seed(rs, st)
	t.time("structure.determine", coreID, func() { structs, _ = t.twinComp.DetermineTopKErr(ctx, transcript, k) })
	t.seeded.full = false
	t.replayLiteral(coreID, structs, ten.Catalog, nil)
	if tw.eng.ValidationMode() != core.ValidationOff {
		t.replayDryRun(coreID, tw.db, out.Candidates)
	}
}

// replayDryRun times a bind-mode dry run of every candidate.
func (t *tracer) replayDryRun(parent int, db *sqlengine.Database, cands []core.Candidate) {
	t.time("sqlengine.dryrun", parent, func() {
		for _, c := range cands {
			sqlengine.DryRun(db, c.SQL, false, nil)
		}
	})
}

// addSearch sums a replayed search's work counters.
func (t *tracer) addSearch(st trieindex.Stats) {
	t.searchStats.NodesVisited += st.NodesVisited
	t.searchStats.TriesSearched += st.TriesSearched
	t.searchStats.TriesSkipped += st.TriesSkipped
	t.searches++
}

// replayLiteral times literal determination for every structure.
func (t *tracer) replayLiteral(parent int, structs []structure.Result, cat *literal.Catalog, memo *literal.VoteMemo) {
	t.time("literal.determine", parent, func() {
		for _, sr := range structs {
			_, _ = literal.DetermineMemoErr(sr.Transcript, sr.Structure, cat, 5, memo)
		}
	})
}

// replayAcquire replays the request's tenant lookup: a warm Acquire, or a
// cold load on a replay registry when the served request loaded the tenant
// from disk. It returns the tenant the request was served by.
func (t *tracer) replayAcquire(s *server, root int, id string, got map[string]int64) *registry.Tenant {
	var ten *registry.Tenant
	if got["registry.cold_loads"] > 0 {
		if catalog, err := os.ReadFile(filepath.Join(s.dir, id+".tenant")); err == nil {
			t.coldLoadFrom(s, root, id, catalog)
		}
		ten, _ = s.reg.Acquire(id)
		return ten
	}
	t.time("registry.acquire", root, func() { ten, _ = s.reg.Acquire(id) })
	return ten
}

// replayRegistry opens a registry over a fresh directory holding one
// tenant's catalog file, so a replayed load or update never touches the
// served registry's state. The caller removes dir.
func (t *tracer) replayRegistry(s *server, id string, catalog []byte) (reg *registry.Registry, dir string, err error) {
	t.replayN++
	dir = filepath.Join(t.replayDir, fmt.Sprintf("replay-%d", t.replayN))
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, dir, err
	}
	if err = os.WriteFile(filepath.Join(dir, id+".tenant"), catalog, 0o644); err != nil {
		return nil, dir, err
	}
	reg, err = registry.New(registry.Config{Shared: s.shared, MaxLive: 1, Dir: dir})
	return reg, dir, err
}

// coldLoadFrom times one Acquire that loads the tenant from its catalog
// file.
func (t *tracer) coldLoadFrom(s *server, parent int, id string, catalog []byte) {
	reg, dir, err := t.replayRegistry(s, id, catalog)
	defer os.RemoveAll(dir)
	if err == nil {
		t.time("registry.cold_load", parent, func() { _, _ = reg.Acquire(id) })
	}
}

// updateFrom times one Update of the resident tenant loaded from catalog.
func (t *tracer) updateFrom(s *server, parent int, id string, catalog []byte, d literal.CatalogDelta) {
	reg, dir, err := t.replayRegistry(s, id, catalog)
	defer os.RemoveAll(dir)
	if err != nil {
		return
	}
	if _, err := reg.Acquire(id); err == nil {
		t.time("registry.update", parent, func() { _, _, _ = reg.Update(id, d) })
	}
}

// layerMetrics reduces the traced phase's spans to per-layer times, and
// the untraced phase m to counts (the /api/stats deltas) and runtime
// figures. The tracing overhead is the traced phase mt against m over the
// requests both sent: the traced phase stops at the run's length too, so
// it covers only the first part of the same request sequence.
func (t *tracer) layerMetrics(m, mt *measurement) map[string]metric {
	childSum := map[int]time.Duration{}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			childSum[sp.Parent] += sp.dur()
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, sp := range t.spans {
		durs[sp.Name] = append(durs[sp.Name], ms(sp.dur()))
		selfs[sp.Name] = append(selfs[sp.Name], ms(max(sp.dur()-childSum[sp.ID], 0)))
	}
	pick := func(from map[string][]float64, names ...string) []float64 {
		var all []float64
		for _, n := range names {
			all = append(all, from[n]...)
		}
		return all
	}
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	reqs := float64(max(m.ph.attempted, 1))
	perK := func(n float64) float64 { return n * 1000 / reqs }
	hits, misses := float64(m.count("cache.search_hits")), float64(m.count("cache.search_misses"))
	memo := float64(m.count("server.memo_hit") + m.count("server.memo_inflight_join"))
	search := pick(durs, "trieindex.search")
	sp50, _ := percentile(search, 0.5)
	sp99, _ := percentile(search, 0.99)
	n := min(len(m.ph.lat), len(mt.ph.lat), len(m.ph.ends), len(mt.ph.ends))
	base, traced := m.ph.lat[:n], mt.ph.lat[:n]
	p99, _ := percentile(base, 0.99)
	tp99, _ := percentile(traced, 0.99)
	var baseEnd, tracedEnd float64
	if n > 0 {
		baseEnd, tracedEnd = float64(m.ph.ends[n-1]), float64(mt.ph.ends[n-1])
	}
	return map[string]metric{
		"trieindex.search_p50_ms":         {sp50, "ms"},
		"trieindex.search_p99_ms":         {sp99, "ms"},
		"trieindex.nodes_visited":         {frac(float64(t.searchStats.NodesVisited), float64(t.searches)), "count"},
		"trieindex.tries_skipped_frac":    {frac(float64(t.searchStats.TriesSkipped), float64(t.searchStats.TriesSkipped+t.searchStats.TriesSearched)), "fraction"},
		"structure.fragment_ms":           {mean(pick(durs, "structure.fragment")), "ms"},
		"structure.redetermine_ms":        {mean(pick(durs, "structure.redetermine")), "ms"},
		"structure.stream_resets":         {frac(float64(m.count("structure.stream_resets")), float64(m.ph.dicts)), "count"},
		"structure.search_cache_hit_frac": {frac(hits, hits+misses), "fraction"},
		"httpapi.memo_hit_frac":           {frac(memo, memo+float64(m.count("server.memo_miss"))), "fraction"},
		"literal.determine_ms":            {mean(pick(durs, "literal.determine")), "ms"},
		"literal.bk_nodes":                {float64(m.count("literal.bk_nodes")) / reqs, "count"},
		"sqlengine.dryrun_us":             {mean(pick(durs, "sqlengine.dryrun")) * 1000, "us"},
		"core.self_ms":                    {mean(pick(selfs, "core.correct", "core.fragment", "core.finalize")), "ms"},
		"httpapi.self_ms":                 {mean(pick(selfs, "http.correct", "http.tenant_patch", "http.stream_dictate", "http.stream_finalize")), "ms"},
		"stream.self_ms":                  {mean(pick(selfs, "http.stream_dictate", "http.stream_finalize")), "ms"},
		"registry.acquire_warm_us":        {mean(pick(durs, "registry.acquire")) * 1000, "us"},
		"registry.cold_load_ms":           {mean(pick(durs, "registry.cold_load")), "ms"},
		"registry.update_ms":              {mean(pick(durs, "registry.update")), "ms"},
		"registry.cold_loads":             {perK(float64(m.count("registry.cold_loads"))), "1/kreq"},
		"registry.evictions":              {perK(float64(m.count("registry.evictions"))), "1/kreq"},
		"runtime.gc_cycles":               {perK(float64(m.mem1.NumGC - m.mem0.NumGC)), "1/kreq"},
		"runtime.gc_pause_frac":           {frac(float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs), float64(m.ph.elapsed)), "fraction"},
		"runtime.alloc_kb_per_op":         {float64(m.mem1.TotalAlloc-m.mem0.TotalAlloc) / 1024 / reqs, "KB"},
		"trace.overhead_p50_frac":         {frac(median(traced), median(base)) - 1, "fraction"},
		"trace.overhead_p99_frac":         {frac(tp99, p99) - 1, "fraction"},
		"trace.overhead_throughput_frac":  {1 - frac(baseEnd, tracedEnd), "fraction"},
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
