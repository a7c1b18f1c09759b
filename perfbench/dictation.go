package main

// dictation.go is the stream path: a query dictated clause by clause
// through POST /api/stream/dictate in a fresh session, then closed with
// POST /api/stream/finalize, as a user pausing between clauses would. It
// exercises the incremental structure search (structure.Incremental over a
// trieindex.PrefixSearcher), the per-dictation literal vote memo and the
// session/stream path, which one-shot correction never touches. Each
// dictation is bounded by its query. tenant-mix sends a share of its
// queries this way.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/registry"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// clauseHeads start a new dictated clause.
var clauseHeads = map[string]bool{"select": true, "from": true, "where": true, "group": true, "order": true, "limit": true}

// splitClauses cuts a word sequence before every clause head but the first.
func splitClauses(words []string) [][]string {
	var out [][]string
	var cur []string
	for i, w := range words {
		if i > 0 && clauseHeads[strings.ToLower(w)] && len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, w)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// dictationIn is one dictated query: its clause transcripts and truth.
type dictationIn struct {
	frags []string
	truth []string
}

// dictate transcribes each spoken clause separately.
func dictate(transcribe func([]string) string, q dataset.SpokenQuery) (dictationIn, bool) {
	d := dictationIn{truth: q.Tokens}
	for _, c := range splitClauses(q.Spoken) {
		if f := strings.TrimSpace(transcribe(c)); f != "" {
			d.frags = append(d.frags, f)
		}
	}
	return d, len(d.frags) > 0
}

// sendDictation dictates one query's fragments in a fresh session (scoped
// to tenant when set) and finalizes it. Each request is recorded; it
// returns the finalize response and whether every request was served at
// full fidelity. Traced, each request is replayed below the handler.
func sendDictation(s *server, ph *phase, t *tracer, i int, tenant string, frags []string) (streamResp, bool, error) {
	var rp *dictationReplay
	if t != nil {
		rp = t.newDictationReplay(s, tenant)
	}
	id := ""
	ok := true
	for j, frag := range frags {
		target := "/api/stream/dictate"
		if j == 0 && tenant != "" {
			target += "?tenant=" + tenant
		}
		body, _ := json.Marshal(map[string]string{"id": id, "fragment": frag})
		resp, served, err := sendStream(s, ph, t, fmt.Sprintf("dictation %d fragment %d", i, j), "http.stream_dictate", target, body,
			func(root int) { rp.fragment(root, j == 0, frag) })
		if err != nil {
			return resp, false, err
		}
		if j == 0 {
			if resp.ID == "" {
				return resp, false, nil
			}
			id = resp.ID
		}
		ok = ok && served
	}
	body, _ := json.Marshal(map[string]string{"id": id})
	resp, served, err := sendStream(s, ph, t, fmt.Sprintf("dictation %d finalize", i), "http.stream_finalize", "/api/stream/finalize", body,
		func(root int) { rp.finalize(root) })
	return resp, ok && served, err
}

// sendStream serves one stream request and records it; replay runs after a
// traced request.
func sendStream(s *server, ph *phase, t *tracer, what, span, target string, body []byte, replay func(root int)) (streamResp, bool, error) {
	var code int
	var out []byte
	var d time.Duration
	serve := func() {
		t0 := time.Now()
		code, out = s.do(http.MethodPost, target, body)
		d = time.Since(t0)
	}
	root := 0
	if t != nil {
		root, _ = t.request(span, serve)
	} else {
		serve()
	}
	ph.record(d)
	var resp streamResp
	if code != http.StatusOK {
		ph.fail(fmt.Sprintf("%s: status %d: %.200s", what, code, out))
		return resp, false, nil
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return resp, false, fmt.Errorf("%s: bad response: %v", what, err)
	}
	if resp.Degradation != core.DegradationFull || resp.DeadlineHit {
		ph.fail(fmt.Sprintf("%s: degradation %s deadline_hit %v", what, resp.Degradation, resp.DeadlineHit))
		return resp, false, nil
	}
	if t != nil {
		replay(root)
	}
	return resp, true, nil
}

// dictationReplay is one traced dictation's twins: a fragment session, an
// incremental determiner and a prefix searcher, each fed the same
// fragments the served session got, plus a vote memo for the literal
// replays.
type dictationReplay struct {
	t      *tracer
	s      *server
	tenant string
	ten    *registry.Tenant
	sess   *core.FragmentSession
	inc    *structure.Incremental
	ps     *trieindex.PrefixSearcher
	memo   *literal.VoteMemo
	raw    []string
	masked []string
	ctx    context.Context
}

func (t *tracer) newDictationReplay(s *server, tenant string) *dictationReplay {
	if tenant == "" {
		tenant = s.reg.SeedID()
	}
	ten, err := s.reg.Acquire(tenant)
	if err != nil {
		return nil
	}
	return &dictationReplay{
		t: t, s: s, tenant: tenant, ten: ten, sess: t.twinEngine(s, ten).eng.NewFragmentSession(),
		inc:  t.twinComp.NewIncremental(1),
		ps:   s.eng.StructureComponent().Index().NewPrefixSearcher(1, trieindex.Options{}),
		memo: literal.NewVoteMemo(), ctx: context.Background(),
	}
}

// fragment replays one dictated fragment: the tenant lookup (first
// fragment only), the core fragment correction, and below it the
// incremental determination, the prefix search and the literal vote.
func (r *dictationReplay) fragment(root int, first bool, frag string) {
	if r == nil {
		return
	}
	t := r.t
	if first {
		t.time("registry.acquire", root, func() { _, _ = r.s.reg.Acquire(r.tenant) })
	}
	ctx, cancel := context.WithTimeout(r.ctx, httpapi.DefaultRequestTimeout)
	defer cancel()
	coreID := t.time("core.fragment", root, func() { r.sess.CorrectFragment(ctx, frag) })
	var structs []structure.Result
	structID := t.time("structure.fragment", coreID, func() { structs, _ = r.inc.AppendFragment(ctx, frag) })
	r.raw = append(r.raw, frag)
	r.search(ctx, structID)
	t.replayLiteral(coreID, structs, r.ten.Catalog, r.memo)
}

// finalize replays the finalize: a full re-determination of the dictation.
func (r *dictationReplay) finalize(root int) {
	if r == nil {
		return
	}
	t := r.t
	ctx, cancel := context.WithTimeout(r.ctx, httpapi.DefaultRequestTimeout)
	defer cancel()
	coreID := t.time("core.finalize", root, func() { r.sess.Finalize(ctx) })
	var structs []structure.Result
	structID := t.time("structure.redetermine", coreID, func() { structs, _ = r.inc.Redetermine(ctx) })
	r.search(ctx, structID)
	t.replayLiteral(coreID, structs, r.ten.Catalog, r.memo)
}

// search replays the prefix search the incremental determiner runs for the
// accumulated transcript: an extension when the masked query grew by a
// suffix, otherwise a reset.
func (r *dictationReplay) search(ctx context.Context, parent int) {
	masked, _ := maskTranscript(strings.Join(r.raw, " "))
	var st trieindex.Stats
	r.t.time("trieindex.search", parent, func() {
		if len(masked) >= len(r.masked) && strings.Join(masked[:len(r.masked)], " ") == strings.Join(r.masked, " ") {
			r.ps.Extend(masked[len(r.masked):])
		} else {
			r.ps.Reset()
			r.ps.Extend(masked)
		}
		_, st = r.ps.SearchContext(ctx)
	})
	r.masked = masked
	r.t.addSearch(st)
}
