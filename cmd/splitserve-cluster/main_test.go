package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitserve/internal/cluster"
	"splitserve/internal/experiments"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("sparkpi, kmeans,pagerank")
	if err != nil {
		t.Fatalf("parseMix: %v", err)
	}
	if len(mix) != 3 || mix[0] != "sparkpi" || mix[1] != "kmeans" {
		t.Fatalf("parseMix = %v", mix)
	}
	if _, err := parseMix("sparkpi,nope"); err == nil || !strings.Contains(err.Error(), "accepted:") {
		t.Fatalf("unknown workload should list accepted names, got %v", err)
	}
	if _, err := parseMix(" , "); err == nil {
		t.Fatal("empty mix accepted")
	}
}

func TestMixFactoriesBuildWorkloads(t *testing.T) {
	for _, name := range experiments.MixNames() {
		mk, ok := experiments.MixWorkload(name)
		if !ok {
			t.Fatalf("MixNames lists %q but MixWorkload cannot resolve it", name)
		}
		w := mk(1)
		if w.Name() == "" || w.DefaultParallelism() <= 0 {
			t.Fatalf("%s: degenerate workload", name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/day.prom.golden")

// TestPromReportGolden pins the -report prom text of the run
// `splitserve-cluster -jobs 3 -mix sparkpi -pool 8 -report prom` makes with
// every other flag at its default. Regenerate with:
//
//	go test ./cmd/splitserve-cluster -run PromReportGolden -update
func TestPromReportGolden(t *testing.T) {
	arrivals, err := cluster.ParseArrivals("poisson:45s", 3, 1)
	if err != nil {
		t.Fatalf("ParseArrivals: %v", err)
	}
	specs, err := experiments.MixSpecs([]string{"sparkpi"}, arrivals, []int{8, 8, 8}, nil, 1, cluster.NewBaselineCache(1))
	if err != nil {
		t.Fatalf("MixSpecs: %v", err)
	}
	s, err := cluster.New(cluster.Config{
		Jobs:      specs,
		PoolCores: 8,
		Policy:    cluster.FairShare(),
		Strategy:  cluster.StrategyBridge,
		SLOFactor: 1.5,
		Seed:      1,
		Admission: cluster.AdmissionGreedy,
		Alloc:     "fixed",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got bytes.Buffer
	if err := s.WriteProm(&got); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	path := filepath.Join("testdata", "day.prom.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("prom report drifted from %s (regenerate with -update):\n--- got ---\n%s", path, got.Bytes())
	}
}
