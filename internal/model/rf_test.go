package model

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/rf"
)

// trainedForest returns a freshly decoded copy of a small trained
// forest, for corruption tests to mutate.
func trainedForest(t *testing.T) *rf.Forest {
	t.Helper()
	X, y, nc := testData()
	m, err := Train(KindRF, X, y, nc, Options{Forest: rf.Params{NumTrees: 3, Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var f rf.Forest
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// firstNode returns the index of tree 1's first leaf or internal node.
func firstNode(t *testing.T, f *rf.Forest, leaf bool) int {
	t.Helper()
	for i, nd := range f.Trees[1].Nodes {
		if (nd.Feature < 0) == leaf {
			return i
		}
	}
	t.Fatalf("tree 1 has no leaf=%v node", leaf)
	return -1
}

// TestValidateForestRejectsCorruption covers each structural rule the
// rf decoder enforces with one corruption, and checks the error names
// the offending tree and node.
func TestValidateForestRejectsCorruption(t *testing.T) {
	if err := validateForest(trainedForest(t)); err != nil {
		t.Fatalf("trained forest rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		leaf    bool // corrupt a leaf rather than an internal node
		corrupt func(f *rf.Forest, i int)
		want    string
	}{
		{"nil tree", false, func(f *rf.Forest, _ int) { f.Trees[1] = nil }, "tree 1 is empty"},
		{"left out of range", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Left = 999999 }, "child 999999"},
		{"right out of range", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Right = -3 }, "child -3"},
		{"cycle to parent", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Left = int32(i) }, "child"},
		{"feature too large", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Feature = int32(f.NumFeatures) }, "split feature"},
		{"feature negative", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Feature = -2 }, "split feature"},
		{"threshold NaN", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Threshold = math.NaN() }, "not finite"},
		{"threshold Inf", false, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Threshold = math.Inf(1) }, "not finite"},
		{"leaf weights short", true, func(f *rf.Forest, i int) {
			nd := &f.Trees[1].Nodes[i]
			nd.Weights = nd.Weights[:len(nd.Weights)-1]
		}, "weights"},
		{"leaf class too large", true, func(f *rf.Forest, i int) { f.Trees[1].Nodes[i].Classes[0] = int32(f.NumClasses) }, "leaf class"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := trainedForest(t)
			i := firstNode(t, f, tc.leaf)
			tc.corrupt(f, i)
			err := validateForest(f)
			if err == nil {
				t.Fatal("corrupt forest accepted")
			}
			if !strings.Contains(err.Error(), "tree 1") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name tree 1 and %q", err, tc.want)
			}
		})
	}
}

// TestUnmarshalRejectsCorruptNode reproduces the artifact that used to
// decode cleanly and then panic on the first prediction: one child
// index pointing far outside its tree.
func TestUnmarshalRejectsCorruptNode(t *testing.T) {
	f := trainedForest(t)
	f.Trees[0].Nodes[0].Left = 999999
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(KindRF, data); err == nil || !strings.Contains(err.Error(), "tree 0 node 0") {
		t.Fatalf("Unmarshal = %v, want an error naming tree 0 node 0", err)
	}
}
