package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"gearbox"
	"gearbox/internal/apps"
	core "gearbox/internal/gearbox"
	"gearbox/internal/sparse"
)

// The app parameters gearbox.System.Run uses for a zero-valued request; the
// benchmark's requests are RunRequests, so direct runs and references use
// the same values. The sim fence checks that direct and served runs agree.
const (
	prDamping  = 0.85
	prIters    = 10
	knnQueries = 4
	knnK       = 10
	svmBatches = 4
	svmBias    = 0.5
)

// sampleNNZ is the query/weight vector density System.Run uses for spknn
// and svm.
func sampleNNZ(m *sparse.CSC) int { return int(m.NumRows/16) + 1 }

// appReq is one app run: the app and the parameters a seed picks for it.
type appReq struct {
	app    string // one of gearbox.Apps()
	source int32  // bfs and sssp
	seed   int64  // spknn and svm
}

func (q appReq) String() string { return fmt.Sprintf("%s/src=%d/seed=%d", q.app, q.source, q.seed) }

// runRequest is q in the form gearbox.System.Run and the server accept.
func (q appReq) runRequest() gearbox.RunRequest {
	return gearbox.RunRequest{App: q.app, Source: q.source, Seed: q.seed}
}

// outcome is an app's output vectors and simulated statistics.
type outcome struct {
	stats   core.RunStats
	work    apps.Work
	ranks   []float32
	levels  []int32
	dist    []float32
	comp    []int32
	knn     [][]apps.Neighbor
	classes [][]int8
}

// run calls the app in internal/apps directly.
func (q appReq) run(m *sparse.CSC, cfg apps.RunConfig) (outcome, error) {
	switch q.app {
	case "pr":
		r, err := apps.PageRank(m, prDamping, prIters, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, ranks: r.Ranks}, nil
	case "bfs":
		r, err := apps.BFS(m, q.source, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, levels: r.Levels}, nil
	case "sssp":
		r, err := apps.SSSP(m, q.source, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, dist: r.Dist}, nil
	case "cc":
		r, err := apps.ConnectedComponents(m, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, comp: r.Component}, nil
	case "spknn":
		r, err := apps.SpKNN(m, knnQueries, sampleNNZ(m), knnK, q.seed, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, knn: r.Neighbors}, nil
	case "svm":
		r, err := apps.SVM(m, svmBatches, sampleNNZ(m), svmBias, q.seed, cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{stats: r.Stats, work: r.Work, classes: r.Classes}, nil
	}
	return outcome{}, fmt.Errorf("unknown app %q", q.app)
}

// reference computes q's output with the CPU reference in internal/apps.
func (q appReq) reference(m *sparse.CSC) outcome {
	switch q.app {
	case "pr":
		return outcome{ranks: apps.RefPageRank(m, prDamping, prIters)}
	case "bfs":
		return outcome{levels: apps.RefBFS(m, q.source)}
	case "sssp":
		return outcome{dist: apps.RefSSSP(m, q.source)}
	case "cc":
		return outcome{comp: apps.RefConnectedComponents(m)}
	case "spknn":
		return outcome{knn: apps.RefSpKNN(m, knnQueries, sampleNNZ(m), knnK, q.seed)}
	case "svm":
		return outcome{classes: apps.RefSVM(m, svmBatches, sampleNNZ(m), svmBias, q.seed)}
	}
	return outcome{}
}

// prTolerance is the largest rank difference accepted against RefPageRank.
// The simulator and the reference accumulate in different orders; the
// internal/apps test accepts 1e-5 on a 512-vertex graph, which is 0.5% of
// the uniform rank 1/n, and the benchmark keeps that share at every n.
func prTolerance(n int) float64 { return 0.005 / float64(n) }

// check compares a simulated outcome with its reference: exactly for the
// integer and min-plus apps and SVM's classes, within prTolerance for
// PageRank's float ranks. SpKNN's neighbours are compared exactly, as the
// internal/apps test does.
func (q appReq) check(got, want outcome) error {
	switch q.app {
	case "pr":
		if len(got.ranks) != len(want.ranks) {
			return fmt.Errorf("pr: %d ranks, want %d", len(got.ranks), len(want.ranks))
		}
		tol := prTolerance(len(want.ranks))
		for v := range want.ranks {
			if d := math.Abs(float64(got.ranks[v] - want.ranks[v])); !(d <= tol) {
				return fmt.Errorf("pr: rank[%d] = %g, want %g (tolerance %g)", v, got.ranks[v], want.ranks[v], tol)
			}
		}
		return nil
	case "bfs":
		return firstDiff("bfs level", got.levels, want.levels)
	case "sssp":
		return firstDiff("sssp dist", got.dist, want.dist)
	case "cc":
		return firstDiff("cc component", got.comp, want.comp)
	case "spknn":
		if len(got.knn) != len(want.knn) {
			return fmt.Errorf("spknn: %d queries, want %d", len(got.knn), len(want.knn))
		}
		for i := range want.knn {
			if err := firstDiff(fmt.Sprintf("spknn query %d neighbour", i), got.knn[i], want.knn[i]); err != nil {
				return err
			}
		}
		return nil
	case "svm":
		if len(got.classes) != len(want.classes) {
			return fmt.Errorf("svm: %d batches, want %d", len(got.classes), len(want.classes))
		}
		for b := range want.classes {
			if err := firstDiff(fmt.Sprintf("svm batch %d class", b), got.classes[b], want.classes[b]); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown app %q", q.app)
}

// firstDiff reports the first index where got and want differ.
func firstDiff[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// simStats are the modelled statistics of one run. They are a pure function
// of the request and the matrix, so every run of a request — traced or
// not, at any worker count — must report the same values.
type simStats struct {
	TimeNs       float64    `json:"time_ns"`
	StepNs       [6]float64 `json:"step_ns"`
	Iterations   int        `json:"iterations"`
	ActivatedNNZ int64      `json:"activated_nnz"`
	RemoteFrac   float64    `json:"remote_frac"`
	EnergyJ      float64    `json:"energy_j"`
	Events       core.Events
	// Link counters come from an attached telemetry sink, so only traced
	// runs and the fence re-run have them (hasLinks).
	RingWords  int64 `json:"ring_words"`
	TSVWords   int64 `json:"tsv_words"`
	DispatchHW int64 `json:"dispatch_hw"`
	hasLinks   bool
}

func simOf(o outcome) simStats {
	s := simStats{
		TimeNs:       o.stats.TimeNs(),
		Iterations:   o.work.Iterations,
		ActivatedNNZ: o.work.ProcessedNNZ,
		RemoteFrac:   o.work.RemoteFrac,
		EnergyJ:      gearbox.Energy(o.stats).Total(),
		Events:       o.stats.EventsTotal(),
	}
	for k := range s.StepNs {
		s.StepNs[k] = o.stats.StepTimeNs(k + 1)
	}
	return s
}

// withLinks adds the link counters a probe collected.
func (s simStats) withLinks(p *probe) simStats {
	s.RingWords, s.TSVWords, s.DispatchHW = p.interconnect()
	s.hasLinks = true
	return s
}

// sameAs reports whether two runs of one request modelled the same thing;
// link counters are compared when both runs have them.
func (s simStats) sameAs(o simStats) bool {
	a, b := s, o
	if !a.hasLinks || !b.hasLinks {
		a.RingWords, a.TSVWords, a.DispatchHW = 0, 0, 0
		b.RingWords, b.TSVWords, b.DispatchHW = 0, 0, 0
	}
	a.hasLinks, b.hasLinks = false, false
	return a == b
}

// simFence remembers the first simulated statistics seen for each request
// and reports any later run that differs.
type simFence map[string]simStats

func (f simFence) observe(key string, s simStats) error {
	prev, ok := f[key]
	if !ok {
		f[key] = s
		return nil
	}
	if !prev.sameAs(s) {
		return fmt.Errorf("sim fence: %s modelled %+v, earlier run modelled %+v", key, s, prev)
	}
	if s.hasLinks && !prev.hasLinks {
		f[key] = s
	}
	return nil
}

// fingerprint hashes every request's simulated statistics, so runs of one
// workload and seed can be compared from their records alone. Link
// counters are left out: untraced runs of most requests do not have them.
func (f simFence) fingerprint() string {
	bare := make(map[string]simStats, len(f))
	for k, s := range f { //gearbox:nondet-ok builds a map; json.Marshal sorts its keys
		s.RingWords, s.TSVWords, s.DispatchHW = 0, 0, 0
		bare[k] = s
	}
	b, err := json.Marshal(bare)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
