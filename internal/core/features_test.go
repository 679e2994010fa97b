package core

import (
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/editdist"
	"repro/ssdeep"
)

// paperKinds are the three fuzzy-hash features of the paper.
var paperKinds = []dataset.FeatureKind{
	dataset.FeatureFile, dataset.FeatureStrings, dataset.FeatureSymbols,
}

// classesOf collects the sorted distinct classes of a sample set the way
// Train does.
func classesOf(samples []dataset.Sample) []string {
	set := map[string]bool{}
	for i := range samples {
		set[samples[i].Class] = true
	}
	classes := make([]string, 0, len(set))
	for c := range set {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return classes
}

// bruteForce is the differential oracle of the grouped-index
// featurisation: the original O(kinds × classes × digests) scan that
// scores a sample digest against every training digest of every class.
// The index is exact — the common-substring gate zeroes every pair it
// skips — so both produce identical vectors.
type bruteForce struct {
	ps       *profileSet
	prepared map[dataset.FeatureKind][][]ssdeep.Prepared // [kind][class][digest]
}

func newBruteForce(ps *profileSet) *bruteForce {
	bf := &bruteForce{ps: ps, prepared: make(map[dataset.FeatureKind][][]ssdeep.Prepared, len(ps.features))}
	for _, kind := range ps.features {
		perClass := make([][]ssdeep.Prepared, len(ps.classes))
		for ci, p := range ps.profiles[kind] {
			for _, d := range p.parsed {
				perClass[ci] = append(perClass[ci], ssdeep.Prepare(d))
			}
		}
		bf.prepared[kind] = perClass
	}
	return bf
}

// featurize is the brute-force counterpart of profileSet.featurize.
func (bf *bruteForce) featurize(s *dataset.Sample, dist ssdeep.DistanceFunc) []float64 {
	out := make([]float64, 0, bf.ps.numFeatures())
	for _, kind := range bf.ps.features {
		d := s.Digests[kind]
		if d.IsZero() {
			for range bf.ps.classes {
				out = append(out, 0)
			}
			continue
		}
		q := ssdeep.Prepare(d)
		for _, class := range bf.prepared[kind] {
			best := 0
			for _, p := range class {
				if score := ssdeep.ComparePrepared(q, p, dist); score > best {
					best = score
					if best == 100 {
						break
					}
				}
			}
			out = append(out, float64(best))
		}
	}
	return out
}

// TestFeaturizeIndexedMatchesBruteForce is the differential test behind
// the index-backed hot path: over the full synthetic corpus (training
// and held-out samples alike) and every scoring distance — the three
// named ones plus the dynamic-programming oracles — the grouped-index
// featurisation must reproduce the brute-force vectors bit for bit.
func TestFeaturizeIndexedMatchesBruteForce(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	dists := []struct {
		name string
		dist ssdeep.DistanceFunc
	}{
		{string(DistanceDL), ssdeep.DistanceDL},
		{string(DistanceLevenshtein), ssdeep.DistanceLevenshtein},
		{string(DistanceSpamsum), ssdeep.DistanceSpamsum},
		{"damerau-levenshtein-dp", editdist.OSADP},
		{"levenshtein-dp", editdist.LevenshteinDP},
	}
	for _, dn := range dists {
		ps := buildProfiles(train, paperKinds, classes)
		bf := newBruteForce(ps)
		for i := range samples {
			indexed := ps.featurize(&samples[i], dn.dist)
			brute := bf.featurize(&samples[i], dn.dist)
			if len(indexed) != len(brute) {
				t.Fatalf("distance %s sample %d: vector lengths %d vs %d", dn.name, i, len(indexed), len(brute))
			}
			for j := range indexed {
				if indexed[j] != brute[j] {
					t.Fatalf("distance %s sample %d column %d: indexed %v, brute force %v",
						dn.name, i, j, indexed[j], brute[j])
				}
			}
		}
	}
}

// TestFeaturizeBitParallelMatchesDPOracle pins the fast-path contract of
// this layer end to end: featurisation under the default bit-parallel
// distances (over the compressed grouped index) is bit-identical to
// featurisation under the retained dynamic-programming oracles.
func TestFeaturizeBitParallelMatchesDPOracle(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	classes := classesOf(train)
	pairs := []struct {
		fast   DistanceName
		oracle ssdeep.DistanceFunc
	}{
		{DistanceDL, editdist.OSADP},
		{DistanceLevenshtein, editdist.LevenshteinDP},
	}
	for _, pair := range pairs {
		fast, err := pair.fast.Func()
		if err != nil {
			t.Fatal(err)
		}
		ps := buildProfiles(train, paperKinds, classes)
		for i := range samples {
			got := ps.featurize(&samples[i], fast)
			want := ps.featurize(&samples[i], pair.oracle)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("distance %s sample %d column %d: bit-parallel %v, DP oracle %v",
						pair.fast, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFeaturizeBatchMatchesSingle guards the concurrency of the shared
// grouped indexes: parallel batch featurisation must equal the serial
// per-sample path.
func TestFeaturizeBatchMatchesSingle(t *testing.T) {
	samples, split := testData(t)
	train := gather(samples, split.TrainIdx)
	ps := buildProfiles(train, paperKinds, classesOf(train))
	batch := ps.featurizeBatch(samples, ssdeep.DistanceDL, 8)
	for i := range samples {
		single := ps.featurize(&samples[i], ssdeep.DistanceDL)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("sample %d column %d: batch %v, single %v", i, j, batch[i][j], single[j])
			}
		}
	}
}

// TestBuildProfilesDropsUnparseableDigests is the regression test for
// the silent-zero-Prepared bug: a digest whose canonical string fails to
// re-parse (block size below the minimum) used to leave a zero-valued
// Prepared in the profile that every sample was then compared against,
// and poisoned Save/Load round-trips. The slot must be dropped from both
// the digest strings and the grouped index.
func TestBuildProfilesDropsUnparseableDigests(t *testing.T) {
	good := mustDigest(t, "valid-but-distinctive-content-AAAA")
	bad := ssdeep.Digest{BlockSize: 1, Sig1: "abcdefgh", Sig2: "ijkl"} // below MinBlockSize
	if _, err := ssdeep.Parse(bad.String()); err == nil {
		t.Fatal("test premise broken: bad digest parsed")
	}
	samples := []dataset.Sample{
		sampleWith(t, "A", good),
		sampleWith(t, "A", bad),
		sampleWith(t, "B", mustDigest(t, "other-class-content-BBBB")),
	}
	ps := buildProfiles(samples, []dataset.FeatureKind{dataset.FeatureFile}, []string{"A", "B"})
	ps.ensureIndexes()
	p := ps.profiles[dataset.FeatureFile][0]
	if len(p.digests) != 1 || len(p.parsed) != 1 {
		t.Fatalf("class A profile kept %d digests / %d parsed, want 1/1", len(p.digests), len(p.parsed))
	}
	if p.digests[0] != good.String() {
		t.Fatalf("class A kept %q, want %q", p.digests[0], good.String())
	}
	if got := ps.indexes[dataset.FeatureFile].Len(); got != 2 {
		t.Fatalf("index holds %d entries, want 2 (the parseable digests)", got)
	}
}

// BenchmarkFeaturizeIndexed and BenchmarkFeaturizeBruteForce read as a
// before/after pair under `-bench 'Featurize(Indexed|BruteForce)'`: one
// grouped 7-gram index query per feature kind versus the scan of every
// training digest of every class, over the same profiles and samples.
func BenchmarkFeaturizeIndexed(b *testing.B) {
	ps, _, samples := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.featurize(&samples[i%len(samples)], ssdeep.DistanceDL)
	}
}

func BenchmarkFeaturizeBruteForce(b *testing.B) {
	_, bf, samples := benchProfiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.featurize(&samples[i%len(samples)], ssdeep.DistanceDL)
	}
}

// benchProfiles builds the featurisation fixture of the pair above:
// profiles of the test corpus's training split, its brute-force oracle,
// and the held-out samples.
func benchProfiles(b *testing.B) (*profileSet, *bruteForce, []dataset.Sample) {
	samples, split := testData(b)
	train := gather(samples, split.TrainIdx)
	ps := buildProfiles(train, paperKinds, classesOf(train))
	return ps, newBruteForce(ps), gather(samples, split.TestIdx)
}

func mustDigest(t *testing.T, content string) ssdeep.Digest {
	t.Helper()
	d, err := ssdeep.HashString(content)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sampleWith(t *testing.T, class string, d ssdeep.Digest) dataset.Sample {
	t.Helper()
	s := dataset.Sample{Class: class}
	s.Digests[dataset.FeatureFile] = d
	return s
}
