// Package billing implements the AWS pricing rules the paper relies on
// (Section 3, Figure 1): EC2 on-demand per-second billing with a one-minute
// minimum, Lambda GB-second billing rounded up to 100 ms plus a per-
// invocation fee, and S3 request pricing. A Meter accumulates the marginal
// cost attributed to a single job, which is the cost the paper reports
// ("we only report the cost incurred towards the job in question").
package billing

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"splitserve/internal/telemetry"
)

// Pricing constants (us-east-1, late 2019/2020, matching the paper's setup).
const (
	// LambdaGBSecondUSD is the Lambda compute price per GB-second.
	LambdaGBSecondUSD = 0.0000166667
	// LambdaInvocationUSD is the per-request fee ($0.20 per million).
	LambdaInvocationUSD = 0.0000002
	// LambdaBillingQuantum is the billing rounding unit (100 ms in 2020).
	LambdaBillingQuantum = 100 * time.Millisecond
	// EC2MinimumBilled is EC2's per-instance minimum charge duration.
	EC2MinimumBilled = time.Minute
	// S3PutUSD and S3GetUSD are per-request S3 prices.
	S3PutUSD = 0.000005
	S3GetUSD = 0.0000004
	// LambdaProvisionedIdleGBSecondUSD is the provisioned-concurrency
	// idle-time rate: what a pre-initialized environment costs per
	// GB-second while it sits warm waiting for work (AWS bills this
	// whether or not the capacity is ever invoked).
	LambdaProvisionedIdleGBSecondUSD = 0.0000041667
)

// LambdaIdleCost returns the provisioned-concurrency charge for keeping a
// warm environment of the given memory size idle for duration d. Idle time
// is billed per second with no minimum (rounding up to whole seconds, as
// AWS does for provisioned concurrency).
func LambdaIdleCost(memoryMB int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	gb := float64(memoryMB) / 1024
	return gb * math.Ceil(d.Seconds()) * LambdaProvisionedIdleGBSecondUSD
}

// VMCost returns the on-demand cost of running an instance priced at
// pricePerHour for duration d: per-second increments with a 60 s minimum.
func VMCost(pricePerHour float64, d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	if d < EC2MinimumBilled {
		d = EC2MinimumBilled
	}
	seconds := math.Ceil(d.Seconds())
	return pricePerHour / 3600 * seconds
}

// VMSavings returns the on-demand cost avoided by releasing an instance
// early: the difference between billing it for the counterfactual
// keep-until duration and for the actual uptime. Both legs go through
// VMCost, so the 60 s minimum applies to each; the result is clamped at
// zero (releasing "early" inside the minimum saves nothing).
func VMSavings(pricePerHour float64, actual, counterfactual time.Duration) float64 {
	saved := VMCost(pricePerHour, counterfactual) - VMCost(pricePerHour, actual)
	if saved < 0 {
		return 0
	}
	return saved
}

// VMCoreCost returns the cost attributable to a subset of an instance's
// cores for duration d, the proportional attribution the paper uses when a
// job occupies only some cores of a shared VM.
func VMCoreCost(pricePerHour float64, totalCores, usedCores int, d time.Duration) float64 {
	if totalCores <= 0 || usedCores <= 0 {
		return 0
	}
	if usedCores > totalCores {
		usedCores = totalCores
	}
	return VMCost(pricePerHour, d) * float64(usedCores) / float64(totalCores)
}

// LambdaCost returns the cost of one Lambda invocation with the given
// memory size running for duration d: GB-seconds rounded up to the 100 ms
// quantum, plus the invocation fee.
func LambdaCost(memoryMB int, d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	quanta := math.Ceil(float64(d) / float64(LambdaBillingQuantum))
	if quanta < 1 {
		quanta = 1
	}
	billed := time.Duration(quanta) * LambdaBillingQuantum
	gb := float64(memoryMB) / 1024
	return gb*billed.Seconds()*LambdaGBSecondUSD + LambdaInvocationUSD
}

// S3RequestCost returns the request cost of puts PUTs and gets GETs.
// (Storage-duration cost is negligible for shuffle-lifetime objects and is
// omitted, as in the paper.)
func S3RequestCost(puts, gets int64) float64 {
	return float64(puts)*S3PutUSD + float64(gets)*S3GetUSD
}

// Item is one billed line in a Meter.
type Item struct {
	Kind     string        // "vm", "lambda", "s3", ...
	Ref      string        // resource identifier
	Duration time.Duration // zero for request-billed items
	USD      float64
}

// Meter accumulates the marginal cost of a single job. The zero value is
// ready to use.
type Meter struct {
	items []Item
	insts *instruments
}

// instruments holds the per-kind billing counters of one hub, shared by
// every meter on it. A kind's pair is resolved on its first billed line,
// so a kind never billed exports no counters. Meters on one hub may run
// on different goroutines, so mu guards the list.
type instruments struct {
	hub   *telemetry.Hub
	mu    sync.Mutex
	kinds []kindCounters
}

type kindCounters struct {
	kind        string
	cost, items *telemetry.Counter
}

var instrumentsKey telemetry.MemoKey

func newInstruments(h *telemetry.Hub) *instruments { return &instruments{hub: h} }

// of returns kind's counters, resolving them on the kind's first line.
func (in *instruments) of(kind string) kindCounters {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, k := range in.kinds {
		if k.kind == kind {
			return k
		}
	}
	kl := telemetry.L("kind", kind)
	k := kindCounters{
		kind:  kind,
		cost:  in.hub.Counter("billing_cost_usd_total", kl),
		items: in.hub.Counter("billing_items_total", kl),
	}
	in.kinds = append(in.kinds, k)
	return k
}

// SetTelemetry makes the meter mirror cost accrual into per-kind
// billing_cost_usd_total and billing_items_total counters on hub.
func (m *Meter) SetTelemetry(h *telemetry.Hub) {
	m.insts = nil
	if h != nil {
		m.insts = telemetry.Memo(h, &instrumentsKey, newInstruments)
	}
}

// Add records a billed line.
func (m *Meter) Add(item Item) {
	m.items = append(m.items, item)
	if m.insts != nil {
		k := m.insts.of(item.Kind)
		k.cost.Add(item.USD)
		k.items.Inc()
	}
}

// AddVM bills an instance (or a share of one) for an interval.
func (m *Meter) AddVM(ref string, pricePerHour float64, totalCores, usedCores int, d time.Duration) {
	m.Add(Item{
		Kind:     "vm",
		Ref:      ref,
		Duration: d,
		USD:      VMCoreCost(pricePerHour, totalCores, usedCores, d),
	})
}

// AddLambda bills one Lambda invocation.
func (m *Meter) AddLambda(ref string, memoryMB int, d time.Duration) {
	m.Add(Item{Kind: "lambda", Ref: ref, Duration: d, USD: LambdaCost(memoryMB, d)})
}

// AddS3 bills S3 requests.
func (m *Meter) AddS3(ref string, puts, gets int64) {
	m.Add(Item{Kind: "s3", Ref: ref, USD: S3RequestCost(puts, gets)})
}

// Total returns the summed cost in USD.
func (m *Meter) Total() float64 {
	sum := 0.0
	for _, it := range m.items {
		sum += it.USD
	}
	return sum
}

// Totals returns the VM, Lambda and overall subtotals, each summed in
// item order: the same floats as TotalByKind's "vm" and "lambda" entries
// (0 when absent) and Total, without building the map.
func (m *Meter) Totals() (vm, lambda, total float64) {
	for _, it := range m.items {
		switch it.Kind {
		case "vm":
			vm += it.USD
		case "lambda":
			lambda += it.USD
		}
		total += it.USD
	}
	return vm, lambda, total
}

// TotalByKind returns per-kind subtotals.
func (m *Meter) TotalByKind() map[string]float64 {
	out := make(map[string]float64)
	for _, it := range m.items {
		out[it.Kind] += it.USD
	}
	return out
}

// Items returns a copy of the billed lines.
func (m *Meter) Items() []Item { return append([]Item(nil), m.items...) }

// String renders a compact per-kind summary, sorted for stable output.
func (m *Meter) String() string {
	byKind := m.TotalByKind()
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "$%.6f", m.Total())
	if len(kinds) > 0 {
		b.WriteString(" (")
		for i, k := range kinds {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=$%.6f", k, byKind[k])
		}
		b.WriteString(")")
	}
	return b.String()
}

// CostPoint is one sample of Figure 1's cost-vs-time-in-use curves.
type CostPoint struct {
	Duration  time.Duration
	VMvCPUUSD float64 // one vCPU of an m4.large (half the instance)
	LambdaUSD float64 // one 1536 MB Lambda (one effective vCPU)
}

// Figure1Curve samples the cost of one vCPU on an m4.large (price/2,
// 60 s minimum then per-second) against a 1536 MB Lambda (100 ms quanta)
// from step to max in increments of step — the exact comparison in the
// paper's Figure 1.
func Figure1Curve(m4LargePricePerHour float64, step, max time.Duration) []CostPoint {
	if step <= 0 {
		panic("billing: non-positive step")
	}
	var out []CostPoint
	for d := step; d <= max; d += step {
		out = append(out, CostPoint{
			Duration:  d,
			VMvCPUUSD: VMCoreCost(m4LargePricePerHour, 2, 1, d),
			LambdaUSD: LambdaCost(1536, d),
		})
	}
	return out
}

// LambdaOvershootTime returns the first sampled duration at which the
// Lambda becomes more expensive than the VM vCPU — the paper's
// "how quickly a Lambda can overshoot a VM" crossover.
func LambdaOvershootTime(m4LargePricePerHour float64) time.Duration {
	for d := LambdaBillingQuantum; d <= time.Hour; d += LambdaBillingQuantum {
		if LambdaCost(1536, d) > VMCoreCost(m4LargePricePerHour, 2, 1, d) {
			return d
		}
	}
	return 0
}
