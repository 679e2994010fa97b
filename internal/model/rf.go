package model

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/rf"
)

func init() {
	Register(KindRF, trainForest, unmarshalForest)
}

// forestModel adapts *rf.Forest to the Model interface. It delegates
// every prediction to the forest unchanged, so a registry-trained "rf"
// model is bit-identical to calling package rf directly.
type forestModel struct {
	f *rf.Forest
}

func trainForest(X [][]float64, y []int, numClasses int, opt Options) (Model, error) {
	f, err := rf.Train(X, y, numClasses, opt.Forest)
	if err != nil {
		return nil, err
	}
	return &forestModel{f: f}, nil
}

func unmarshalForest(data []byte) (Model, error) {
	var f rf.Forest
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	if len(f.Trees) == 0 {
		return nil, fmt.Errorf("rf: model has no trees")
	}
	if err := validateForest(&f); err != nil {
		return nil, err
	}
	return &forestModel{f: &f}, nil
}

// validateForest rejects a decoded forest that inference could not walk
// safely, naming the offending tree and node: an artifact is untrusted
// input, and a bad child index would otherwise panic (or loop) inside
// the serving engine's batch goroutine on the first prediction. Nodes
// are stored in preorder, so requiring every child index to lie after
// its parent also proves each tree acyclic.
func validateForest(f *rf.Forest) error {
	for t, tree := range f.Trees {
		if tree == nil || len(tree.Nodes) == 0 {
			return fmt.Errorf("rf: tree %d is empty", t)
		}
		n := int32(len(tree.Nodes))
		for i := range tree.Nodes {
			nd := &tree.Nodes[i]
			if nd.Feature == -1 {
				if len(nd.Classes) != len(nd.Weights) {
					return fmt.Errorf("rf: tree %d node %d: leaf has %d classes but %d weights",
						t, i, len(nd.Classes), len(nd.Weights))
				}
				for _, c := range nd.Classes {
					if c < 0 || int(c) >= f.NumClasses {
						return fmt.Errorf("rf: tree %d node %d: leaf class %d outside [0,%d)", t, i, c, f.NumClasses)
					}
				}
				continue
			}
			if nd.Feature < 0 || int(nd.Feature) >= f.NumFeatures {
				return fmt.Errorf("rf: tree %d node %d: split feature %d outside [0,%d)", t, i, nd.Feature, f.NumFeatures)
			}
			if math.IsNaN(nd.Threshold) || math.IsInf(nd.Threshold, 0) {
				return fmt.Errorf("rf: tree %d node %d: threshold %v is not finite", t, i, nd.Threshold)
			}
			for _, c := range [2]int32{nd.Left, nd.Right} {
				if c <= int32(i) || c >= n {
					return fmt.Errorf("rf: tree %d node %d: child %d outside (%d,%d)", t, i, c, i, n)
				}
			}
		}
	}
	return nil
}

func (m *forestModel) Kind() string     { return KindRF }
func (m *forestModel) NumClasses() int  { return m.f.NumClasses }
func (m *forestModel) NumFeatures() int { return m.f.NumFeatures }

func (m *forestModel) PredictProba(x []float64) []float64 {
	return m.f.PredictProba(x)
}

func (m *forestModel) PredictProbaBatch(X [][]float64, workers int) [][]float64 {
	return m.f.PredictProbaBatch(X, workers)
}

// Importances exposes the forest's mean-decrease-in-impurity column
// importances (the Importancer optional interface).
func (m *forestModel) Importances() []float64 { return m.f.Importances }

// Forest exposes the underlying forest for rf-specific introspection
// (fitted hyper-parameters, OOB score).
func (m *forestModel) Forest() *rf.Forest { return m.f }

func (m *forestModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.f)
}
