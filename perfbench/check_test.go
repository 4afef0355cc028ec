package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"gearbox/internal/apps"
	core "gearbox/internal/gearbox"
	"gearbox/internal/gen"
	"gearbox/internal/partition"
	"gearbox/internal/semiring"
	"gearbox/internal/sparse"
)

// tinyCase runs every app once on a small symmetric RMAT matrix and returns
// the matrix and each request's simulated outcome.
func tinyCase(t *testing.T) (*sparse.CSC, map[appReq]outcome) {
	t.Helper()
	m, err := gen.RMAT(gen.RMATConfig{Scale: 9, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m = symmetrize(m)
	pcfg, mcfg := v3Config(1)
	plan, err := partition.Build(m, mcfg.Geo, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := core.New(plan, semiring.PlusTimes{}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := apps.RunConfig{Partition: pcfg, Machine: mcfg, Plan: plan, Reuse: mach}
	out := map[appReq]outcome{}
	for _, q := range []appReq{{app: "pr"}, {app: "bfs", source: 1}, {app: "sssp", source: 1}, {app: "cc"}, {app: "spknn", seed: 5}, {app: "svm", seed: 5}} {
		o, err := q.run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out[q] = o
	}
	return m, out
}

func TestCheckCatchesCorruptedOutput(t *testing.T) {
	m, runs := tinyCase(t)
	corrupt := map[string]func(o *outcome){
		"pr":    func(o *outcome) { o.ranks[7] += 10 * float32(prTolerance(len(o.ranks))) },
		"bfs":   func(o *outcome) { o.levels[3]++ },
		"sssp":  func(o *outcome) { o.dist[3] += 0.5 },
		"cc":    func(o *outcome) { o.comp[5]++ },
		"spknn": func(o *outcome) { o.knn[0][0].Score *= 2 },
		"svm":   func(o *outcome) { o.classes[1][9] = -o.classes[1][9] },
	}
	for q, got := range runs {
		want := q.reference(m)
		if err := q.check(got, want); err != nil {
			t.Fatalf("%s: simulated output rejected: %v", q, err)
		}
		bad := q.reference(m) // a fresh copy to corrupt
		corrupt[q.app](&bad)
		if err := q.check(bad, want); err == nil {
			t.Errorf("%s: corrupted output accepted", q)
		}
	}
}

func TestSimFenceRejectsAChangedModel(t *testing.T) {
	_, runs := tinyCase(t)
	s := simOf(runs[appReq{app: "pr"}])
	f := simFence{}
	if err := f.observe("pr", s); err != nil {
		t.Fatal(err)
	}
	if err := f.observe("pr", s); err != nil {
		t.Fatalf("identical run rejected: %v", err)
	}
	linked := s
	linked.RingWords, linked.hasLinks = 42, true
	if err := f.observe("pr", linked); err != nil {
		t.Fatalf("a traced run of the same request rejected: %v", err)
	}
	drift := linked
	drift.RingWords++
	if err := f.observe("pr", drift); err == nil {
		t.Error("changed link count accepted")
	}
	moved := s
	moved.StepNs[2] += 1e-9
	if err := f.observe("pr", moved); err == nil {
		t.Error("changed step time accepted")
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks the result line.
func TestSmokeEveryWorkload(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-tiny", "-out", t.TempDir(), "-workload", name, "-seed", "7", "-seconds", "2", "-trace", trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				out := stdout.String()
				var last string
				sc := bufio.NewScanner(strings.NewReader(out))
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					last = sc.Text()
				}
				r, err := parseResult(last)
				if err != nil {
					t.Fatalf("result line %q: %v", last, err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("correct=%v failed=%d: %s", r.Correct, r.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				if trace == "0" && r.Metrics["ok_frac"].Value != 1 {
					t.Fatalf("ok_frac = %v", r.Metrics["ok_frac"].Value)
				}
				if !strings.Contains(out, "\nrecord {") {
					t.Fatal("no steadiness record printed")
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "bfs-road", "-trace", "2"},
		{"-workload", "bfs-road", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
}
