package main

// checks.go holds the benchmark's output checks. Each one recomputes what
// the program should have answered from the benchmark's own inputs, with
// no stored copy of an earlier run's output:
//
//   - checkDistance (check 1): the smallest structure distance among the
//     returned candidates is the weighted token edit distance between the
//     masked transcript and that candidate's structure, and no larger than
//     the distance to the query's ground-truth structure (which the grammar
//     generated, so an exact search cannot do worse).
//   - checkFinalize (check 2): a finalized dictation equals the one-shot
//     correction of its concatenated fragments.
//   - checkTenant (check 3): a tenant response equals what a standalone
//     engine, built from the benchmark's own copy of the tenant's schema
//     and deltas, answers for the same transcript.

import (
	"fmt"
	"math"
	"strings"

	"speakql/internal/core"
	"speakql/internal/grammar"
	"speakql/internal/metrics"
	"speakql/internal/sqltoken"
)

// wireCand is one candidate of a POST /api/correct response.
type wireCand struct {
	SQL       string   `json:"sql"`
	Structure []string `json:"structure"`
	Distance  float64  `json:"distance"`
	Verdict   string   `json:"verdict"`
	Demoted   bool     `json:"demoted"`
}

// correctResp is the part of a POST /api/correct response the checks read.
type correctResp struct {
	Candidates  []wireCand `json:"candidates"`
	DeadlineHit bool       `json:"deadline_hit"`
	Degradation string     `json:"degradation"`
	Validation  string     `json:"validation"`
}

// streamResp is the part of a POST /api/stream/{dictate,finalize} response
// the benchmark reads.
type streamResp struct {
	ID          string `json:"id"`
	Transcript  string `json:"transcript"`
	SQL         string `json:"sql"`
	DeadlineHit bool   `json:"deadline_hit"`
	Degradation string `json:"degradation"`
}

// distEps absorbs float summation-order differences between the search's
// incremental DP and the from-scratch recomputation.
const distEps = 1e-9

// nestedSpan locates a one-level nested query the way the structure
// component does (Appendix F.8): from the first SELECT after position 0 to
// its unmatched closing parenthesis, or the end. ok is false without one.
func nestedSpan(toks []string) (sel, end int, ok bool) {
	sel = -1
	for i, t := range toks {
		if i > 0 && strings.EqualFold(t, "SELECT") {
			sel = i
			break
		}
	}
	if sel < 0 {
		return 0, 0, false
	}
	end, depth := len(toks), 0
	for i := sel; i < len(toks) && end == len(toks); i++ {
		switch toks[i] {
		case "(":
			depth++
		case ")":
			if depth == 0 {
				end = i
			} else {
				depth--
			}
		}
	}
	return sel, end, true
}

// splitNested replaces the nested query by one literal symbol; inner is
// nil when there is no nesting.
func splitNested(toks []string) (outer, inner []string) {
	sel, end, ok := nestedSpan(toks)
	if !ok {
		return toks, nil
	}
	outer = append(outer, toks[:sel]...)
	outer = append(outer, grammar.Lit)
	outer = append(outer, toks[end:]...)
	return outer, toks[sel:end]
}

// maskTranscript recomputes the structure search's input for a raw
// transcript: spoken-form substitution, the nesting split, generic masking.
func maskTranscript(raw string) (masked []string, nested bool) {
	toks := sqltoken.SubstituteSpokenForms(sqltoken.TokenizeTranscript(raw))
	outer, inner := splitNested(toks)
	return sqltoken.MaskGeneric(outer), inner != nil
}

// outerForms returns the generic-masked outer structures a returned
// structure can have come from. Without nesting that is the structure
// itself. With nesting the server spliced the inner structure either into
// the outer structure's "( x )" slot or, lacking one, appended it in
// parentheses; both inverses are returned.
func outerForms(structure []string, nested bool) [][]string {
	masked := sqltoken.MaskGeneric(structure)
	if !nested {
		return [][]string{masked}
	}
	sel, end, ok := nestedSpan(masked)
	if !ok {
		return [][]string{masked}
	}
	outer, _ := splitNested(masked)
	forms := [][]string{outer}
	// Appended form: the inner query fills a trailing "( ... )".
	if n := len(masked); end == n-1 && masked[sel-1] == "(" {
		forms = append(forms, masked[:sel-1])
	}
	return forms
}

// checkDistance is check 1 on one /api/correct response: masked is the
// transcript's recomputed masked outer query, truth the query's
// ground-truth generic structure.
func checkDistance(masked []string, nested bool, cands []wireCand, truth []string) error {
	if len(cands) == 0 {
		return fmt.Errorf("no candidates")
	}
	best := 0
	for i, c := range cands {
		if c.Distance < cands[best].Distance {
			best = i
		}
	}
	c := cands[best]
	matched := false
	recomputed := math.Inf(1)
	for _, form := range outerForms(c.Structure, nested) {
		d := metrics.WeightedTokenEditDistance(masked, form)
		recomputed = math.Min(recomputed, d)
		if math.Abs(d-c.Distance) <= distEps {
			matched = true
		}
	}
	if !matched {
		return fmt.Errorf("candidate %d reports distance %.6f but its structure %q is %.6f from the masked transcript %q",
			best, c.Distance, strings.Join(c.Structure, " "), recomputed, strings.Join(masked, " "))
	}
	// The ground-truth bound applies when transcript and truth agree on
	// nesting; otherwise the searched shapes differ and the bound says
	// nothing.
	truthOuter, truthInner := splitNested(truth)
	if (truthInner != nil) != nested {
		return nil
	}
	if d := metrics.WeightedTokenEditDistance(masked, truthOuter); c.Distance > d+distEps {
		return fmt.Errorf("best distance %.6f exceeds the ground-truth structure's %.6f (truth %q, masked %q)",
			c.Distance, d, strings.Join(truthOuter, " "), strings.Join(masked, " "))
	}
	return nil
}

// checkFinalize is check 2: the finalized dictation's SQL must equal the
// one-shot top-1 of the concatenated fragments.
func checkFinalize(finalized streamResp, oneshot correctResp) error {
	if len(oneshot.Candidates) == 0 {
		return fmt.Errorf("one-shot correction of %q returned no candidates", finalized.Transcript)
	}
	if got, want := finalized.SQL, oneshot.Candidates[0].SQL; got != want {
		return fmt.Errorf("finalized %q but one-shot of %q gives %q", got, finalized.Transcript, want)
	}
	return nil
}

// checkTenant is check 3: the served candidates must equal the standalone
// engine's, field by field (timings excluded).
func checkTenant(got correctResp, want core.Output) error {
	if len(got.Candidates) != len(want.Candidates) {
		return fmt.Errorf("served %d candidates, standalone engine %d", len(got.Candidates), len(want.Candidates))
	}
	if got.Degradation != want.Degradation || got.Validation != want.Validation {
		return fmt.Errorf("served degradation/validation %s/%s, standalone %s/%s",
			got.Degradation, got.Validation, want.Degradation, want.Validation)
	}
	for i, g := range got.Candidates {
		w := want.Candidates[i]
		if g.SQL != w.SQL || g.Distance != w.StructureDistance || g.Verdict != w.Verdict ||
			g.Demoted != w.Demoted || strings.Join(g.Structure, " ") != strings.Join(w.Structure, " ") {
			return fmt.Errorf("candidate %d: served %q (d=%.4f %s), standalone %q (d=%.4f %s)",
				i, g.SQL, g.Distance, g.Verdict, w.SQL, w.StructureDistance, w.Verdict)
		}
	}
	return nil
}

// wire renders an engine output the way /api/correct does.
func wire(out core.Output) correctResp {
	r := correctResp{Degradation: out.Degradation, Validation: out.Validation}
	for _, c := range out.Candidates {
		r.Candidates = append(r.Candidates, wireCand{SQL: c.SQL, Structure: c.Structure,
			Distance: c.StructureDistance, Verdict: c.Verdict, Demoted: c.Demoted})
	}
	return r
}

// accuracy scores a top-1 SQL string against the ground-truth tokens:
// exact (case-insensitive token sequence equality) and word recall rate.
func accuracy(top1SQL string, truth []string) (exact bool, wrr float64) {
	hyp := sqltoken.TokenizeSQL(top1SQL)
	exact = len(hyp) == len(truth)
	for i := 0; exact && i < len(hyp); i++ {
		exact = strings.EqualFold(hyp[i], truth[i])
	}
	return exact, metrics.Compare(truth, hyp).WRR
}
