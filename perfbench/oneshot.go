package main

// oneshot.go is the oneshot-paper workload: Figure 14's setting. One
// client sends POST /api/correct (top-1) for each of 1000 distinct ACS
// transcripts of a generated Employees test corpus, against a server at
// PaperGrammar() scale with -cachesize 0 -memo-size 0 -timeout 30s and
// validation off, so every request searches the full paper-scale trie
// index.
//
// The 1000 transcripts are fixed: the corpus and the ACS channel use the
// experiment harness's own seeds, as the paper's test set is fixed. At
// this scale a handful of transcripts make the tail, and which ones do
// depends on the ASR noise draw (two channel seeds over the same 1000
// queries gave p99 685 and 1187 ms, throughput 35 and 28 req/s), so a
// seeded draw would measure the draw rather than the program. The seed
// orders the requests and picks the warm-up. A run sends all 1000 once,
// 1000 being the smallest sample whose p99 has ten samples beyond it, and
// goes on in the same order only until --seconds has passed, so the
// length of a run does not jump by a whole round when the first one ends
// just before --seconds.

import (
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
)

const (
	oneshotQueries = 1000
	oneshotWarmup  = 20
	// oneshotTimeout replaces the 10 s default deadline, whose literal soft
	// budget degrades a response once structure search passes 7.5 s. The
	// slowest transcript takes about 4.5 s, so on a slow stretch of a
	// shared host the default would fail it in some runs and not others;
	// Figure 14 measures latency with no deadline.
	oneshotTimeout = 30 * time.Second
	// Seeds of the fixed test set: the experiment harness's corpus seed
	// (train 42, test 43) and ACS channel seed.
	corpusSeed = 42
	acsSeed    = 1001
)

// correctOp is one POST /api/correct with what its checks need.
type correctOp struct {
	tenant     string // "" for the seed tenant
	transcript string
	topk       int
	body       []byte
	masked     []string // recomputed masked outer query
	nested     bool
	truth      []string // ground-truth tokens
	structure  []string // ground-truth generic structure
}

func newCorrectOp(tenant, transcript string, topk int, q dataset.SpokenQuery) correctOp {
	body, _ := json.Marshal(map[string]any{"transcript": transcript, "topk": topk})
	masked, nested := maskTranscript(transcript)
	return correctOp{tenant: tenant, transcript: transcript, topk: topk, body: body,
		masked: masked, nested: nested, truth: q.Tokens, structure: q.Structure}
}

func (op *correctOp) target() string {
	if op.tenant == "" {
		return "/api/correct"
	}
	return "/api/correct?tenant=" + op.tenant
}

func (op *correctOp) hash(h hash.Hash64) {
	hashFields(h, "correct", op.tenant, op.transcript, strconv.Itoa(op.topk))
}

// sendCorrect serves one correction, records it, and runs check 1 on it.
// It returns the decoded response, whether it was served at full
// fidelity, and a check violation naming the request.
func sendCorrect(s *server, ph *phase, t *tracer, i int, op *correctOp) (correctResp, bool, error) {
	var code int
	var body []byte
	var root int
	var got map[string]int64
	var d time.Duration
	serve := func() {
		t0 := time.Now()
		code, body = s.do(http.MethodPost, op.target(), op.body)
		d = time.Since(t0)
	}
	if t != nil {
		root, got = t.request("http.correct", serve)
	} else {
		serve()
	}
	ph.record(d)
	var resp correctResp
	if code != http.StatusOK {
		ph.fail(fmt.Sprintf("request %d: status %d: %.200s", i, code, body))
		return resp, false, nil
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, false, fmt.Errorf("request %d: bad response: %v", i, err)
	}
	if resp.Degradation != core.DegradationFull || resp.DeadlineHit {
		ph.fail(fmt.Sprintf("request %d: degradation %s deadline_hit %v", i, resp.Degradation, resp.DeadlineHit))
		return resp, false, nil
	}
	if err := checkDistance(op.masked, op.nested, resp.Candidates, op.structure); err != nil {
		return resp, true, fmt.Errorf("check 1 failed on request %d (tenant %q, transcript %q): %v", i, op.tenant, op.transcript, err)
	}
	if t != nil {
		id := op.tenant
		if id == "" {
			id = s.reg.SeedID()
		}
		t.replayCorrect(s, root, id, op.transcript, op.topk, op.masked, got)
	}
	return resp, true, nil
}

type oneshot struct {
	ops     []correctOp
	warmOps []correctOp
}

func (w *oneshot) prepare(seed int64, _ int, h hash.Hash64) error {
	gcfg := grammar.PaperScale()
	db := dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	train := dataset.GenerateQueries(db, dataset.GenConfig{Grammar: gcfg, N: 750, Seed: corpusSeed})
	test := dataset.GenerateQueries(db, dataset.GenConfig{Grammar: gcfg, N: oneshotQueries, Seed: corpusSeed + 1})
	acs := trainedACS(train, acsSeed)
	timed := map[string]bool{}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(test)) {
		op := newCorrectOp("", acs.Transcribe(test[i].Spoken), 1, test[i])
		timed[op.transcript] = true
		op.hash(h)
		w.ops = append(w.ops, op)
	}
	for _, i := range rng.Perm(len(train)) {
		if len(w.warmOps) == oneshotWarmup {
			break
		}
		if tr := acs.Transcribe(train[i].Spoken); !timed[tr] {
			w.warmOps = append(w.warmOps, newCorrectOp("", tr, 1, train[i]))
		}
	}
	return nil
}

// trainedACS is the experiment harness's customized ACS engine, trained on
// the training split, with the given channel seed.
func trainedACS(train []dataset.SpokenQuery, seed int64) *asr.Engine {
	acs := asr.NewEngine(asr.ACSProfile(), seed)
	sqls := make([]string, len(train))
	for i, q := range train {
		sqls[i] = q.SQL
	}
	acs.TrainQueries(sqls)
	return acs
}

// Building the paper-scale index takes ~25 s, so a run sets up once.
func (w *oneshot) setups() int { return 1 }

func (w *oneshot) setup(string) (*server, error) {
	return newServer(serverConfig{scale: "paper", cacheSize: 0, memoSize: 0,
		maxTenants: defaultMaxTenants, validate: core.ValidationOff, timeout: oneshotTimeout})
}

func (w *oneshot) warm(s *server) error {
	var ph phase
	for i := range w.warmOps {
		if _, _, err := sendCorrect(s, &ph, nil, i, &w.warmOps[i]); err != nil {
			return err
		}
	}
	return ph.err()
}

func (w *oneshot) run(s *server, ph *phase, t *tracer, d time.Duration) error {
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i := range w.ops {
			// A traced run replays each request, which doubles its cost at
			// this scale, so its traced phase stops at d even in the first
			// round: a whole traced round could outlast the run's time limit.
			if (round > 0 || t != nil) && time.Since(start) >= d {
				return nil
			}
			op := &w.ops[i]
			resp, ok, err := sendCorrect(s, ph, t, i, op)
			if err != nil {
				return err
			}
			if ok && round == 0 {
				ph.score(resp.Candidates[0].SQL, op.truth)
			}
		}
		if t != nil {
			break // the traced run replays one round
		}
	}
	return nil
}

func (w *oneshot) check(*server, *phase) error { return nil }

func (w *oneshot) describe(out io.Writer, _ *server, ph *phase, before, after apiStats) {
	fmt.Fprintf(out, "inputs: %d fixed ACS transcripts of the Employees test corpus at paper scale, seeded order; caches off\n", len(w.ops))
	fmt.Fprintf(out, "trie nodes visited per request %.0f\n",
		float64(delta(before, after, "search.nodes_visited"))/float64(max(ph.attempted, 1)))
}
