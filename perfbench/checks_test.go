package main

import (
	"strings"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/structure"
)

func toks(s string) []string { return strings.Fields(s) }

func TestCheckDistanceAcceptsExactAnswer(t *testing.T) {
	masked, nested := maskTranscript("select salary from employees where name = john")
	cands := []wireCand{{Structure: toks("SELECT x1 FROM x2 WHERE x3 = x4"), Distance: 0}}
	if err := checkDistance(masked, nested, cands, toks("SELECT x FROM x WHERE x = x")); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
}

func TestCheckDistanceRejectsStructureOneTokenOff(t *testing.T) {
	masked, nested := maskTranscript("select salary from employees where name = john")
	// The reported distance belongs to the right structure, but the
	// structure returned is one token off.
	cands := []wireCand{{Structure: toks("SELECT x1 FROM x2 WHERE x3 < x4"), Distance: 0}}
	if err := checkDistance(masked, nested, cands, toks("SELECT x FROM x WHERE x = x")); err == nil {
		t.Fatal("a structure one token off its reported distance passed check 1")
	}
}

func TestCheckDistanceRejectsWorseThanGroundTruth(t *testing.T) {
	masked, nested := maskTranscript("select salary from employees where name = john")
	// Self-consistent, but farther than the ground-truth structure: an
	// exact search could not have returned it.
	cands := []wireCand{{Structure: toks("SELECT x1 FROM x2"), Distance: 4.4}}
	if err := checkDistance(masked, nested, cands, toks("SELECT x FROM x WHERE x = x")); err == nil {
		t.Fatal("an answer farther than the ground truth passed check 1")
	}
}

func TestCheckDistanceUsesSmallestCandidate(t *testing.T) {
	masked, nested := maskTranscript("select salary from employees where name = john")
	cands := []wireCand{
		{Structure: toks("SELECT x1 FROM x2"), Distance: 4.4},
		{Structure: toks("SELECT x1 FROM x2 WHERE x3 = x4"), Distance: 0},
	}
	if err := checkDistance(masked, nested, cands, toks("SELECT x FROM x WHERE x = x")); err != nil {
		t.Fatalf("a demoted exact candidate was not the one checked: %v", err)
	}
}

func TestOuterFormsInvertsBothSplices(t *testing.T) {
	// Spliced into the outer query's "( x )" slot.
	got := outerForms(toks("SELECT x1 FROM x2 WHERE x3 IN ( SELECT x4 FROM x5 )"), true)
	if strings.Join(got[0], " ") != "SELECT x FROM x WHERE x IN ( x )" {
		t.Fatalf("slot splice inverted to %q", got[0])
	}
	// Appended in parentheses when the outer query had no slot.
	got = outerForms(toks("SELECT x1 FROM x2 WHERE x3 = x4 ( SELECT x5 FROM x6 )"), true)
	if len(got) != 2 || strings.Join(got[1], " ") != "SELECT x FROM x WHERE x = x" {
		t.Fatalf("appended splice inverted to %q", got)
	}
}

func TestCheckFinalizeRejectsDifferentOneShot(t *testing.T) {
	fin := streamResp{Transcript: "select salary from employees", SQL: "SELECT Salary FROM Employees"}
	one := correctResp{Candidates: []wireCand{{SQL: "SELECT Salary FROM Employees"}}}
	if err := checkFinalize(fin, one); err != nil {
		t.Fatalf("matching finalize rejected: %v", err)
	}
	one.Candidates[0].SQL = "SELECT Salary FROM Salaries"
	if err := checkFinalize(fin, one); err == nil {
		t.Fatal("a finalize that differs from its one-shot passed check 2")
	}
}

func TestCheckTenantRejectsAnotherTenantsCatalog(t *testing.T) {
	comp, err := structure.New(structure.Config{Grammar: grammar.TestScale()})
	if err != nil {
		t.Fatal(err)
	}
	mine := core.NewEngineWithComponent(comp, literal.NewCatalog(
		[]string{"Employees"}, []string{"Name", "Salary"}, []string{"Johnson", "Anderson"}), 5)
	other := core.NewEngineWithComponent(comp, literal.NewCatalog(
		[]string{"Patients"}, []string{"Ward", "Doctor"}, []string{"Cardiology", "Oncology"}), 5)
	const transcript = "select salary from employees where name equals johnson"
	want := mine.CorrectTopK(transcript, 3)
	if err := checkTenant(wire(want), mine.CorrectTopK(transcript, 3)); err != nil {
		t.Fatalf("the tenant's own answer was rejected: %v", err)
	}
	if err := checkTenant(wire(other.CorrectTopK(transcript, 3)), want); err == nil {
		t.Fatal("an answer built from another tenant's catalog passed check 3")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if v, ok := percentile(samples(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten beyond", v, ok)
	}
	if _, ok := percentile(samples(999), 0.99); ok {
		t.Fatal("p99 of 999 samples reported with fewer than ten beyond it")
	}
	if v, ok := percentile(samples(3), 0.5); !ok || v != 2 {
		t.Fatalf("median of 1..3 = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("median of no samples reported")
	}
}

func TestSplitClauses(t *testing.T) {
	got := splitClauses(toks("select name from employees where salary greater than five order by name"))
	var parts []string
	for _, c := range got {
		parts = append(parts, strings.Join(c, " "))
	}
	want := "select name|from employees|where salary greater than five|order by name"
	if strings.Join(parts, "|") != want {
		t.Fatalf("clauses %q, want %q", parts, want)
	}
}

func TestFailedRequestFailsPhaseAndLeavesLatency(t *testing.T) {
	var ph phase
	ph.record(2 * time.Millisecond)
	if ph.err() != nil {
		t.Fatal("a phase with no failed request reported an error")
	}
	ph.record(time.Microsecond)
	ph.fail("request 1: status 503")
	if ph.attempted != 2 || ph.failed != 1 || len(ph.lat) != 1 || ph.lat[0] != 2 {
		t.Fatalf("attempted %d failed %d latencies %v; want 2, 1, [2]", ph.attempted, ph.failed, ph.lat)
	}
	if err := ph.err(); err == nil || !strings.Contains(err.Error(), "status 503") {
		t.Fatalf("phase error %v; want the failed request named", err)
	}
}
