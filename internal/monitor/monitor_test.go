package monitor

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/openset"
)

// known is the stub classifier's class set: classes outside it are
// labelled unknown.
var known = map[string]bool{"BLAST": true, "GROMACS": true, "XMRig": true}

// label stands in for the classifier: it labels an executable of class
// by that class with fixed confidence, using the unknown label (closest
// class "NearestThing") for classes outside known.
func label(class string) core.Prediction {
	if known[class] {
		return core.Prediction{Label: class, Class: class, Confidence: 0.95}
	}
	return core.Prediction{Label: core.UnknownLabel, Class: "NearestThing", Confidence: 0.3}
}

func testMonitor() *Monitor {
	return New(Policy{
		AllowedByAccount: map[string][]string{
			"bio-1": {"BLAST"},
			"mat-2": {"GROMACS"},
		},
		Blocklist: []string{"XMRig"},
	})
}

// observe labels one job whose executable is of class and applies the
// monitor's policy to it.
func observe(m *Monitor, job, user, account, class string) (core.Prediction, []Finding) {
	pred := label(class)
	return pred, m.Apply(Event{JobID: job, User: user, Account: account}, pred)
}

func kinds(findings []Finding) []FindingKind {
	out := make([]FindingKind, len(findings))
	for i, f := range findings {
		out[i] = f.Kind
	}
	return out
}

func TestCleanJobHasNoFindings(t *testing.T) {
	m := testMonitor()
	pred, findings := observe(m, "1", "alice", "bio-1", "BLAST")
	if pred.Label != "BLAST" {
		t.Fatalf("label = %q", pred.Label)
	}
	if len(findings) != 0 {
		t.Fatalf("clean job produced findings: %v", findings)
	}
}

func TestUnknownApplicationFinding(t *testing.T) {
	m := testMonitor()
	pred, findings := observe(m, "2", "bob", "bio-1", "MysteryApp")
	if pred.Label != core.UnknownLabel {
		t.Fatalf("label = %q", pred.Label)
	}
	if len(findings) != 1 || findings[0].Kind != UnknownApplication {
		t.Fatalf("findings = %v", findings)
	}
	if !strings.Contains(findings[0].Message, "NearestThing") {
		t.Fatalf("message lacks nearest class: %s", findings[0].Message)
	}
}

func TestPurposeDeviation(t *testing.T) {
	m := testMonitor()
	_, findings := observe(m, "3", "carol", "bio-1", "GROMACS")
	ks := kinds(findings)
	if len(ks) != 1 || ks[0] != PurposeDeviation {
		t.Fatalf("findings = %v", findings)
	}
}

func TestUnrestrictedAccount(t *testing.T) {
	m := testMonitor()
	if _, findings := observe(m, "4", "dave", "free-9", "GROMACS"); len(findings) != 0 {
		t.Fatalf("unrestricted account flagged: %v", findings)
	}
}

func TestNewUserBehaviour(t *testing.T) {
	m := testMonitor()
	if _, f := observe(m, "5", "erin", "bio-1", "BLAST"); len(f) != 0 {
		t.Fatalf("first job flagged: %v", f)
	}
	if _, f := observe(m, "6", "erin", "bio-1", "BLAST"); len(f) != 0 {
		t.Fatalf("repeat job flagged: %v", f)
	}
	_, findings := observe(m, "7", "erin", "mat-2", "GROMACS")
	found := false
	for _, f := range findings {
		if f.Kind == NewUserBehaviour {
			found = true
		}
	}
	if !found {
		t.Fatalf("behaviour change not flagged: %v", findings)
	}
}

func TestBlockedApplication(t *testing.T) {
	m := testMonitor()
	_, findings := observe(m, "8", "mallory", "free-9", "XMRig")
	if len(findings) == 0 || findings[0].Kind != BlockedApplication {
		t.Fatalf("blocklisted app not flagged: %v", findings)
	}
}

func TestUserHistory(t *testing.T) {
	m := testMonitor()
	observe(m, "9", "zoe", "free-9", "BLAST")
	observe(m, "10", "zoe", "free-9", "BLAST")
	observe(m, "11", "zoe", "free-9", "GROMACS")
	hist := m.UserHistory("zoe")
	if len(hist) != 2 || hist[0].Class != "BLAST" || hist[0].Count != 2 {
		t.Fatalf("history = %v", hist)
	}
	if got := m.UserHistory("nobody"); len(got) != 0 {
		t.Fatalf("unknown user history = %v", got)
	}
}

func TestUnknownDoesNotPolluteHistory(t *testing.T) {
	m := testMonitor()
	observe(m, "12", "pat", "free-9", "MysteryApp")
	if got := m.UserHistory("pat"); len(got) != 0 {
		t.Fatalf("unknown observation entered history: %v", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := testMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				observe(m, "c", "conc", "free-9", "BLAST")
			}
		}(w)
	}
	wg.Wait()
	hist := m.UserHistory("conc")
	if len(hist) != 1 || hist[0].Count != 400 {
		t.Fatalf("concurrent history = %v, want 400 BLAST", hist)
	}
}

func TestFindingKindString(t *testing.T) {
	for k, want := range map[FindingKind]string{
		UnknownApplication: "unknown-application",
		PurposeDeviation:   "purpose-deviation",
		NewUserBehaviour:   "new-user-behaviour",
		BlockedApplication: "blocked-application",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// TestObserverHooks is the table-driven contract for Apply, the policy
// hook a serving surface calls once per served prediction: every
// verdict shape yields the findings its label calls for, and only the
// unknown verdict (which demotes the label) raises the unknown finding.
func TestObserverHooks(t *testing.T) {
	cases := []struct {
		name      string
		pred      core.Prediction
		wantKinds []FindingKind
	}{
		{name: "class verdict",
			pred: core.Prediction{Label: "BLAST", Class: "BLAST", Confidence: 0.95, Verdict: openset.VerdictClass}},
		{name: "unknown verdict demotes to the unknown finding",
			pred: core.Prediction{Label: core.UnknownLabel, Class: "BLAST", Confidence: 0.41,
				Verdict: openset.VerdictUnknown},
			wantKinds: []FindingKind{UnknownApplication}},
		{name: "ambiguous verdict keeps the label",
			pred: core.Prediction{Label: "GROMACS", Class: "GROMACS", Confidence: 0.62,
				Verdict: openset.VerdictAmbiguous}},
		{name: "no calibration leaves the verdict empty",
			pred: core.Prediction{Label: "BLAST", Class: "BLAST", Confidence: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Policy{})
			e := Event{JobID: "j1", User: "alice"}
			for round := 0; round < 2; round++ { // a repeat job finds the same
				findings := m.Apply(e, tc.pred)
				if len(findings) != len(tc.wantKinds) {
					t.Fatalf("round %d: findings %+v, want kinds %v", round, findings, tc.wantKinds)
				}
				for i, k := range tc.wantKinds {
					if findings[i].Kind != k {
						t.Fatalf("round %d: finding %d kind %v, want %v", round, i, findings[i].Kind, k)
					}
				}
			}
			wantHist := 2
			if tc.pred.Label == core.UnknownLabel {
				wantHist = 0
			}
			got := 0
			for _, h := range m.UserHistory("alice") {
				got += h.Count
			}
			if got != wantHist {
				t.Fatalf("history holds %d observations, want %d", got, wantHist)
			}
		})
	}
}
