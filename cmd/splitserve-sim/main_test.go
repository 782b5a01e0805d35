package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"splitserve"
)

// TestSummaryCostLinesSorted renders one result's summary many times: the
// bytes must never change, and the cost lines come in sorted kind order.
func TestSummaryCostLinesSorted(t *testing.T) {
	res := &splitserve.Result{
		Scenario: "hybrid", Workload: "sparkpi", ExecTime: 42 * time.Second,
		CostUSD:    0.75,
		CostByKind: map[string]float64{"vm": 0.5, "lambda": 0.125, "s3": 0.0625, "hdfs": 0.0625},
		Answer:     "pi=3.14", VMTasks: 3, LambdaTasks: 5,
		VMBusy: 2 * time.Second, LambdaBusy: time.Second,
	}
	var first bytes.Buffer
	writeSummary(&first, res)
	want := "cost[hdfs] = $0.062500\ncost[lambda] = $0.125000\ncost[s3] = $0.062500\ncost[vm] = $0.500000\n"
	if !strings.HasSuffix(first.String(), want) {
		t.Fatalf("summary cost lines:\n%s\nwant suffix:\n%s", first.String(), want)
	}
	for i := 0; i < 100; i++ {
		var again bytes.Buffer
		writeSummary(&again, res)
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, again.Bytes(), first.Bytes())
		}
	}
}
