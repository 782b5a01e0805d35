package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"splitserve/internal/cluster"
	"splitserve/internal/costmgr"
)

// The multi-run recipes (the mixed day, its elasticity and cost-manager
// variants, the shard sweep, the profile sweep) are pinned by the sha256
// of every report JSON they produce. Regenerate with:
//
//	go test ./internal/experiments -run Golden -update

// elasticityRuns and costManagerRuns memoise the seed-1 runs that both an
// acceptance test and a golden check read, so the pair costs one run.
var (
	elasticityRuns = sync.OnceValues(func() ([]*cluster.Report, error) {
		return ClusterElasticity(1, 45*time.Second)
	})
	costManagerRuns = sync.OnceValues(func() ([]CostManagerRun, error) {
		f, err := costmgr.Load(filepath.Join("testdata", "profiles.json"))
		if err != nil {
			return nil, err
		}
		return CostManagerComparison(1, f)
	})
)

// checkDigests compares one "label sha256" line per report JSON with
// testdata/<name>.golden (rewritten under -update).
func checkDigests(t *testing.T, name string, labels []string, reports [][]byte) {
	t.Helper()
	var got strings.Builder
	for i, buf := range reports {
		fmt.Fprintf(&got, "%s %x\n", labels[i], sha256.Sum256(buf))
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("report digests drifted from %s:\n got:\n%swant:\n%s", path, got.String(), want)
	}
}

func clusterDigests(t *testing.T, name string, reps []*cluster.Report) {
	t.Helper()
	var labels []string
	var bufs [][]byte
	for i, r := range reps {
		buf, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, fmt.Sprintf("%d/%s/%s/%s", i, r.Strategy, r.Admission, r.Alloc))
		bufs = append(bufs, buf)
	}
	checkDigests(t, name, labels, bufs)
}

func TestClusterComparisonGolden(t *testing.T) {
	reps, err := ClusterComparison(1)
	if err != nil {
		t.Fatalf("ClusterComparison: %v", err)
	}
	clusterDigests(t, "clustercomparison", reps)
}

func TestClusterElasticityGolden(t *testing.T) {
	reps, err := elasticityRuns()
	if err != nil {
		t.Fatalf("ClusterElasticity: %v", err)
	}
	clusterDigests(t, "elasticity", reps)
}

func TestCostManagerComparisonGolden(t *testing.T) {
	runs, err := costManagerRuns()
	if err != nil {
		t.Fatalf("CostManagerComparison: %v", err)
	}
	var reps []*cluster.Report
	for _, r := range runs {
		reps = append(reps, r.Report)
	}
	clusterDigests(t, "costmanager", reps)
}

func TestShardScalingGolden(t *testing.T) {
	reps, err := ShardScaling(1)
	if err != nil {
		t.Fatalf("ShardScaling: %v", err)
	}
	var labels []string
	var bufs [][]byte
	for _, r := range reps {
		buf, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, fmt.Sprintf("shards=%d", r.Shards))
		bufs = append(bufs, buf)
	}
	checkDigests(t, "shardscaling", labels, bufs)
}

// TestBuildProfileFileGolden holds BuildProfileFile to the sparkpi curves
// of the checked-in testdata/profiles.json, the file the cost-manager
// tests load as `splitserve-profile -out` output. Unlike the digests above
// it never rewrites its golden: -update regenerates that file only
// through the cost-manager tests.
func TestBuildProfileFileGolden(t *testing.T) {
	f, err := BuildProfileFile(1, []string{"sparkpi"}, nil, nil)
	if err != nil {
		t.Fatalf("BuildProfileFile: %v", err)
	}
	want, err := costmgr.Load(filepath.Join("testdata", "profiles.json"))
	if err != nil {
		t.Fatal(err)
	}
	var wantCurves []costmgr.Curve
	for _, c := range want.Curves {
		if c.Workload == "sparkpi" {
			wantCurves = append(wantCurves, c)
		}
	}
	got, _ := json.Marshal(f.Curves)
	exp, _ := json.Marshal(wantCurves)
	if string(got) != string(exp) {
		t.Errorf("sparkpi curves differ from testdata/profiles.json:\n got: %s\nwant: %s", got, exp)
	}
	if f.Version != want.Version || f.Seed != want.Seed {
		t.Errorf("file header %v/%v, testdata has %v/%v", f.Version, f.Seed, want.Version, want.Seed)
	}
}

func TestMixSpecsRoundRobin(t *testing.T) {
	arrivals := []time.Duration{0, time.Second, 2 * time.Second}
	cores := []int{4, 4, 4}
	picks := make([]*cluster.CostPick, 3)
	specs, err := MixSpecs([]string{"sparkpi", "kmeans"}, arrivals, cores, picks, 1, cluster.NewBaselineCache(1))
	if err != nil {
		t.Fatalf("MixSpecs: %v", err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	if specs[0].Name != "sparkpi" || specs[1].Name != "kmeans" || specs[2].Name != "sparkpi" {
		t.Fatalf("round-robin broken: %s %s %s", specs[0].Name, specs[1].Name, specs[2].Name)
	}
	for i, s := range specs {
		if s.Baseline <= 0 {
			t.Errorf("spec %d has no baseline", i)
		}
		if s.Arrival != arrivals[i] || s.Cores != 4 || s.Workload == nil {
			t.Errorf("spec %d malformed: %+v", i, s)
		}
	}
	if specs[0].Baseline != specs[2].Baseline {
		t.Error("same workload name should share one calibrated baseline")
	}
}
