package tracereplay

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/specs.golden")

// TestSpecsGolden pins every spec Specs builds from the committed fixture
// at seed 1: tenant, arrival, cores and calibrated baseline. Regenerate
// with:
//
//	go test ./internal/tracereplay -run TestSpecsGolden -update
func TestSpecsGolden(t *testing.T) {
	tr, err := Load("testdata/multitenant_small.csv")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := Specs(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, s := range specs {
		fmt.Fprintf(&got, "%s\t%d\t%d\t%d\n", s.Tenant, s.Arrival, s.Cores, s.Baseline)
	}
	path := filepath.Join("testdata", "specs.golden")
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
		t.Errorf("specs drifted from %s:\n got:\n%swant:\n%s", path, got.String(), want)
	}
}
