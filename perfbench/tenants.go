package main

// tenants.go is the tenant-mix workload: tenant-scoped POST /api/correct
// (topk 1-5) on GCS transcripts of dataset.Schemas corpora, against a
// server at TestGrammar() scale with speakql-server's defaults (search
// cache 1024, memo 4096) and -validate bind, so every tenant bind-checks
// its candidates. Structure search is cheap at this scale; the literal
// vote, the registry, the dry runs and the HTTP layer carry the cost. A
// share of the queries is dictated clause by clause through the stream
// path instead (dictation.go), each clause transcribed on its own.
//
// Writes run in the same sequence: a few percent of operations are PATCH
// /api/tenants/{id} catalog deltas, alternately adding two values and
// removing them again. There are more tenants than -max-tenants, with
// Zipf popularity, so some requests cold-load a tenant from -tenant-dir;
// some reads repeat a recent (tenant, transcript, topk), as a display
// retry does. A run goes through the sequence until --seconds has passed.
// The tenant set and its popularity order are fixed (tenant i is the i-th
// most popular): which schema shapes are popular moves cost and accuracy
// by a quarter between seeds, which would measure the draw rather than the
// program. The seed draws the queries, the GCS channel's noise,
// the retries and the writes.

import (
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
)

// The traffic shape below is assumed, not taken from a published trace:
// the paper has no multi-tenant traffic and the repo no recorded one. The
// README gives the figures each value moves when it changes.
const (
	tenantCount    = 20
	tenantCapacity = 16   // -max-tenants
	schemaSeed     = 7    // the fixed tenant set
	zipfExponent   = 1.1  // tenant popularity
	writeShare     = 0.03 // PATCH share of operations
	retryShare     = 0.05 // share repeating one of the last retryWindow reads
	retryWindow    = 32
	dictateShare   = 0.04 // share dictated through the stream path
	// opsPerSecond sizes the generated sequence well above the measured
	// rate (about 400 operations a second), so a run never exhausts it.
	opsPerSecond  = 1500
	tenantWarmup  = 200
	warmDictation = 10 // warm-up operations dictated rather than read
	check3Every   = 50 // one read in this many is re-answered standalone
)

// tenantOp is one operation of the sequence: a read (one request), a
// write (one request) or a dictation (a request per fragment, then the
// finalize).
type tenantOp struct {
	read   *correctOp
	retry  bool
	dict   *dictationIn
	tenant int
	delta  *literal.CatalogDelta
	body   []byte // PATCH body
	writes int    // the tenant's writes before this operation
	sample bool   // a check 3 sample
}

// sample is one check 3 sample: a served read and the tenant's state.
type sample struct {
	idx  int
	op   *tenantOp
	resp correctResp
}

// final is one finalized dictation, for check 2.
type final struct {
	idx  int
	op   *tenantOp
	resp streamResp
}

type tenantMix struct {
	dbs       []*sqlengine.Database
	ids       []string
	puts      [][]byte
	ops       []tenantOp
	warmup    []correctOp
	warmDicts []tenantOp
	added     [][][]string // per tenant, the values each write adds or removes
	samples   []sample
	finals    []final
	sent      int // operations the timed phase started
}

func (w *tenantMix) prepare(seed int64, seconds int, h hash.Hash64) error {
	gcfg := grammar.TestScale()
	w.dbs = dataset.Schemas(tenantCount, schemaSeed)
	for _, db := range w.dbs {
		w.ids = append(w.ids, db.Name)
		put, _ := json.Marshal(map[string]any{
			"tables": db.TableNames(), "attributes": db.AttributeNames(), "values": db.StringValues(0),
		})
		w.puts = append(w.puts, put)
	}
	rng := rand.New(rand.NewSource(seed))
	pick := zipfPicker(rng, tenantCount)

	// Draw the sequence's shape first, then generate exactly the queries
	// each tenant needs.
	n := opsPerSecond * seconds
	type slot struct {
		kind   byte // 'r' fresh read, 'R' retry, 'w' write, 'd' dictation
		tenant int
		ref    int // retry: the repeated op; read, dictation: the tenant's query number
		topk   int
	}
	slots := make([]slot, 0, n+tenantWarmup)
	need := make([]int, tenantCount)
	var reads []int
	for len(slots) < n {
		r := rng.Float64()
		switch {
		case r < writeShare:
			slots = append(slots, slot{kind: 'w', tenant: pick()})
		case r < writeShare+retryShare && len(reads) > 0:
			ref := reads[max(0, len(reads)-retryWindow)+rng.Intn(min(retryWindow, len(reads)))]
			slots = append(slots, slot{kind: 'R', tenant: slots[ref].tenant, ref: ref})
		case r >= writeShare+retryShare && r < writeShare+retryShare+dictateShare:
			t := pick()
			slots = append(slots, slot{kind: 'd', tenant: t, ref: need[t]})
			need[t]++
		default:
			t := pick()
			reads = append(reads, len(slots))
			slots = append(slots, slot{kind: 'r', tenant: t, ref: need[t], topk: 1 + rng.Intn(5)})
			need[t]++
		}
	}
	warmNeed := make([]int, tenantCount)
	for i := 0; i < tenantWarmup; i++ {
		t := pick()
		slots = append(slots, slot{kind: 'r', tenant: t, ref: warmNeed[t], topk: 1 + rng.Intn(5)})
		warmNeed[t]++
	}

	gcs := asr.NewEngine(asr.GCSProfile(), seed)
	queries := make([][]dataset.SpokenQuery, tenantCount)
	warmQ := make([][]dataset.SpokenQuery, tenantCount)
	timed := map[string]bool{}
	for t, db := range w.dbs {
		qs := dataset.GenerateQueries(db, dataset.GenConfig{Grammar: gcfg, N: need[t] + warmNeed[t], Seed: rng.Int63()})
		queries[t], warmQ[t] = qs[:need[t]], qs[need[t]:]
	}
	transcripts := make([][]string, tenantCount)
	for t := range queries {
		for _, q := range queries[t] {
			tr := gcs.Transcribe(q.Spoken)
			transcripts[t] = append(transcripts[t], tr)
			timed[w.ids[t]+"\x00"+tr] = true
		}
	}

	// Writes alternate: add two values drawn from the other schemas, then
	// remove them again.
	w.added = make([][][]string, tenantCount)
	pool := valuePool(w.dbs)
	writes := make([]int, tenantCount)
	for _, sl := range slots[:n] {
		op := tenantOp{tenant: sl.tenant, writes: writes[sl.tenant]}
		switch sl.kind {
		case 'w':
			k := writes[sl.tenant]
			if k%2 == 0 {
				vals := freshValues(rng, pool, w.dbs[sl.tenant])
				w.added[sl.tenant] = append(w.added[sl.tenant], vals)
				op.delta = &literal.CatalogDelta{AddValues: vals}
			} else {
				op.delta = &literal.CatalogDelta{RemoveValues: w.added[sl.tenant][k/2]}
			}
			op.body, _ = json.Marshal(op.delta)
			writes[sl.tenant]++
			hashFields(h, "patch", w.ids[sl.tenant], string(op.body))
		case 'R':
			op.read, op.retry = w.ops[sl.ref].read, true
			op.sample = rng.Intn(check3Every) == 0
			op.read.hash(h)
		case 'd':
			d, ok := dictate(gcs.Transcribe, queries[sl.tenant][sl.ref])
			if !ok {
				return fmt.Errorf("tenant %s query %d transcribes to nothing", w.ids[sl.tenant], sl.ref)
			}
			op.dict = &d
			hashFields(h, append([]string{"dictate", w.ids[sl.tenant]}, d.frags...)...)
		default:
			q := queries[sl.tenant][sl.ref]
			c := newCorrectOp(w.ids[sl.tenant], transcripts[sl.tenant][sl.ref], sl.topk, q)
			op.read = &c
			op.sample = rng.Intn(check3Every) == 0
			c.hash(h)
		}
		w.ops = append(w.ops, op)
	}
	for i, sl := range slots[n:] {
		q := warmQ[sl.tenant][sl.ref]
		if i < warmDictation {
			if d, ok := dictate(gcs.Transcribe, q); ok && !timed[w.ids[sl.tenant]+"\x00"+strings.Join(d.frags, " ")] {
				w.warmDicts = append(w.warmDicts, tenantOp{tenant: sl.tenant, dict: &d})
			}
			continue
		}
		tr := gcs.Transcribe(q.Spoken)
		if timed[w.ids[sl.tenant]+"\x00"+tr] {
			continue
		}
		w.warmup = append(w.warmup, newCorrectOp(w.ids[sl.tenant], tr, sl.topk, q))
	}
	return nil
}

// zipfPicker draws tenant indices with Zipf popularity: index i has
// weight 1/(i+1)^s.
func zipfPicker(rng *rand.Rand, n int) func() int {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		cum[i] = total
	}
	return func() int {
		x := rng.Float64() * total
		return sort.SearchFloat64s(cum, x)
	}
}

// valuePool is every schema's string values, the vocabulary writes draw
// their added values from.
func valuePool(dbs []*sqlengine.Database) []string {
	seen := map[string]bool{}
	var pool []string
	for _, db := range dbs {
		for _, v := range db.StringValues(0) {
			if !seen[v] {
				seen[v] = true
				pool = append(pool, v)
			}
		}
	}
	sort.Strings(pool)
	return pool
}

// freshValues draws two distinct pool values the tenant's schema lacks.
func freshValues(rng *rand.Rand, pool []string, db *sqlengine.Database) []string {
	own := map[string]bool{}
	for _, v := range db.StringValues(0) {
		own[v] = true
	}
	var out []string
	for len(out) < 2 {
		v := pool[rng.Intn(len(pool))]
		if !own[v] && (len(out) == 0 || out[0] != v) {
			out = append(out, v)
		}
	}
	return out
}

// Setting up takes well under a second, so a run sets up nine times.
func (w *tenantMix) setups() int { return 9 }

func (w *tenantMix) setup(dir string) (*server, error) {
	s, err := newServer(serverConfig{scale: "test", cacheSize: defaultCacheSize, memoSize: defaultMemoSize,
		maxTenants: tenantCapacity, tenantDir: dir, validate: core.ValidationBind})
	if err != nil {
		return nil, err
	}
	for i, id := range w.ids {
		if code, body := s.do(http.MethodPut, "/api/tenants/"+id, w.puts[i]); code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("register tenant %s: status %d: %.200s", id, code, body)
		}
	}
	return s, nil
}

func (w *tenantMix) warm(s *server) error {
	var ph phase
	for i := range w.warmup {
		if _, _, err := sendCorrect(s, &ph, nil, i, &w.warmup[i]); err != nil {
			return err
		}
	}
	for i, op := range w.warmDicts {
		if _, _, err := sendDictation(s, &ph, nil, i, w.ids[op.tenant], op.dict.frags); err != nil {
			return err
		}
	}
	return ph.err()
}

func (w *tenantMix) run(s *server, ph *phase, t *tracer, d time.Duration) error {
	w.samples, w.finals, w.sent = w.samples[:0], w.finals[:0], 0
	start := time.Now()
	for i := range w.ops {
		if time.Since(start) >= d {
			return nil
		}
		w.sent++
		op := &w.ops[i]
		if op.delta != nil {
			if err := w.patch(s, ph, t, i, op); err != nil {
				return err
			}
			continue
		}
		if op.dict != nil {
			resp, ok, err := sendDictation(s, ph, t, i, w.ids[op.tenant], op.dict.frags)
			if err != nil {
				return err
			}
			ph.dicts++
			if ok {
				ph.score(resp.SQL, op.dict.truth)
				w.finals = append(w.finals, final{idx: i, op: op, resp: resp})
			}
			continue
		}
		resp, ok, err := sendCorrect(s, ph, t, i, op.read)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if !op.retry {
			ph.score(resp.Candidates[0].SQL, op.read.truth)
		}
		if op.sample {
			w.samples = append(w.samples, sample{idx: i, op: op, resp: resp})
		}
	}
	if t != nil {
		return nil // the traced run replays one pass
	}
	return fmt.Errorf("the generated sequence of %d operations ran out before %v", len(w.ops), d)
}

// patch sends one catalog delta. Traced, the tenant's catalog file is
// read before the write so the update can be replayed on the state the
// served write started from.
func (w *tenantMix) patch(s *server, ph *phase, t *tracer, i int, op *tenantOp) error {
	id := w.ids[op.tenant]
	var prior []byte
	if t != nil {
		var err error
		if prior, err = os.ReadFile(filepath.Join(s.dir, id+".tenant")); err != nil {
			return err
		}
	}
	var code int
	var body []byte
	var d time.Duration
	serve := func() {
		t0 := time.Now()
		code, body = s.do(http.MethodPatch, "/api/tenants/"+id, op.body)
		d = time.Since(t0)
	}
	root := 0
	var got map[string]int64
	if t != nil {
		root, got = t.request("http.tenant_patch", serve)
	} else {
		serve()
	}
	ph.record(d)
	if code != http.StatusOK {
		ph.fail(fmt.Sprintf("request %d: PATCH %s: status %d: %.200s", i, id, code, body))
		return nil
	}
	if t != nil {
		if got["registry.cold_loads"] > 0 {
			t.coldLoadFrom(s, root, id, prior)
		}
		t.updateFrom(s, root, id, prior, *op.delta)
	}
	return nil
}

// check runs check 3, every sampled response, and check 2, every
// finalized dictation, against a standalone engine built afresh from the
// benchmark's own copy of the tenant's schema with the deltas sent before
// the operation.
func (w *tenantMix) check(s *server, _ *phase) error {
	comp := s.twinComponent()
	engines := map[string]*core.Engine{}
	engine := func(op *tenantOp) *core.Engine {
		key := w.ids[op.tenant] + "#" + strconv.Itoa(op.writes)
		eng, ok := engines[key]
		if !ok {
			eng = w.standalone(comp, op.tenant, op.writes, s.vcfg)
			engines[key] = eng
		}
		return eng
	}
	for _, f := range w.finals {
		dictated := strings.Join(f.op.dict.frags, " ")
		if f.resp.Transcript != dictated {
			return fmt.Errorf("check 2 failed on operation %d: finalized transcript %q, dictated %q", f.idx, f.resp.Transcript, dictated)
		}
		if err := checkFinalize(f.resp, wire(engine(f.op).CorrectTopK(dictated, 1))); err != nil {
			return fmt.Errorf("check 2 failed on operation %d (tenant %s after %d writes): %w", f.idx, w.ids[f.op.tenant], f.op.writes, err)
		}
	}
	for _, sm := range w.samples {
		t := sm.op.tenant
		want := engine(sm.op).CorrectTopK(sm.op.read.transcript, sm.op.read.topk)
		if err := checkTenant(sm.resp, want); err != nil {
			return fmt.Errorf("check 3 failed on request %d (tenant %s after %d writes, topk %d, transcript %q): %w",
				sm.idx, w.ids[t], sm.op.writes, sm.op.read.topk, sm.op.read.transcript, err)
		}
	}
	return nil
}

// standalone builds tenant t's engine as the registry would, from its
// schema plus the values its first writes deltas left in place.
func (w *tenantMix) standalone(comp *structure.Component, t, writes int, vcfg core.ValidationConfig) *core.Engine {
	db := w.dbs[t]
	values := append([]string(nil), db.StringValues(0)...)
	if writes%2 == 1 {
		values = append(values, w.added[t][writes/2]...)
	}
	cat := literal.NewCatalog(db.TableNames(), db.AttributeNames(), values)
	eng := core.NewEngineWithComponent(comp, cat, 5)
	vcfg.Mode = core.ValidationBind
	eng.SetValidation(vcfg, sqlengine.NewSchemaDatabase(w.ids[t], cat.Tables(), cat.Attributes()))
	return eng
}

func (w *tenantMix) describe(out io.Writer, _ *server, ph *phase, before, after apiStats) {
	var reads, retries, writes, frags int
	for _, op := range w.ops[:w.sent] {
		switch {
		case op.delta != nil:
			writes++
		case op.dict != nil:
			frags += len(op.dict.frags)
		case op.retry:
			retries++
			reads++
		default:
			reads++
		}
	}
	hits, misses := delta(before, after, "cache.search_hits"), delta(before, after, "cache.search_misses")
	memo := delta(before, after, "server.memo_hit") + delta(before, after, "server.memo_inflight_join")
	fmt.Fprintf(out, "inputs: %d tenants (Zipf %.1f) against %d resident; %d reads (%d retries), %d writes, %d dictations of %.2f fragments each\n",
		tenantCount, zipfExponent, tenantCapacity, reads, retries, writes, ph.dicts, float64(frags)/float64(max(ph.dicts, 1)))
	fmt.Fprintf(out, "measured: memo hits %.4f of reads, search cache hits %.4f of searches, cold loads %.4f and evictions %.4f per request\n",
		float64(memo)/float64(max(reads, 1)), float64(hits)/float64(max(hits+misses, 1)),
		float64(delta(before, after, "registry.cold_loads"))/float64(max(ph.attempted, 1)),
		float64(delta(before, after, "registry.evictions"))/float64(max(ph.attempted, 1)))
	fmt.Fprintf(out, "stream resets per dictation %.3f; sessions resident after the phase %d (before %d)\n",
		float64(delta(before, after, "structure.stream_resets"))/float64(max(ph.dicts, 1)), after.Sessions, before.Sessions)
	fmt.Fprintf(out, "check 2 dictations verified: %d; check 3 samples verified: %d\n", len(w.finals), len(w.samples))
}
