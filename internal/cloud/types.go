// Package cloud simulates the IaaS and FaaS substrates the paper runs on:
// EC2 m4-family instances with boot delays and per-type EBS/network
// bandwidth, and a Lambda platform with warm/cold starts, a 15-minute
// lifetime cap, 512 MB of /tmp, memory-proportional CPU share and egress
// bandwidth, and no inbound connectivity (Lambdas can open connections but
// cannot accept them — the property that forces the paper's external
// shuffle store).
package cloud

import (
	"fmt"
	"time"
)

// VMType describes an EC2 instance type. Bandwidths are in Mbps as AWS
// documents them; use netsim.Mbps to convert.
type VMType struct {
	Name         string
	VCPUs        int
	MemGiB       float64
	EBSMbps      float64
	NetMbps      float64
	PricePerHour float64
}

// The m4 family as provisioned in the paper's experiments.
var (
	M4Large = VMType{
		Name: "m4.large", VCPUs: 2, MemGiB: 8,
		EBSMbps: 450, NetMbps: 450, PricePerHour: 0.10,
	}
	M4XLarge = VMType{
		Name: "m4.xlarge", VCPUs: 4, MemGiB: 16,
		EBSMbps: 750, NetMbps: 750, PricePerHour: 0.20,
	}
	M42XLarge = VMType{
		Name: "m4.2xlarge", VCPUs: 8, MemGiB: 32,
		EBSMbps: 1000, NetMbps: 1000, PricePerHour: 0.40,
	}
	M44XLarge = VMType{
		Name: "m4.4xlarge", VCPUs: 16, MemGiB: 64,
		EBSMbps: 2000, NetMbps: 2000, PricePerHour: 0.80,
	}
	M410XLarge = VMType{
		Name: "m4.10xlarge", VCPUs: 40, MemGiB: 160,
		EBSMbps: 4000, NetMbps: 10000, PricePerHour: 2.00,
	}
	M416XLarge = VMType{
		Name: "m4.16xlarge", VCPUs: 64, MemGiB: 256,
		EBSMbps: 10000, NetMbps: 25000, PricePerHour: 3.20,
	}
)

// M4Family lists the m4 catalogue smallest-first.
var M4Family = []VMType{M4Large, M4XLarge, M42XLarge, M44XLarge, M410XLarge, M416XLarge}

// SmallestFor returns the fewest, largest-type instances providing at least
// cores vCPUs, matching the paper's profiling methodology ("for each degree
// of parallelism, we use the fewest number of instances that provide the
// required number of cores"). It returns the chosen type and the instance
// count.
func SmallestFor(cores int) (VMType, int) {
	if cores <= 0 {
		panic("cloud: non-positive core count")
	}
	for _, t := range M4Family {
		if t.VCPUs >= cores {
			return t, 1
		}
	}
	biggest := M4Family[len(M4Family)-1]
	n := (cores + biggest.VCPUs - 1) / biggest.VCPUs
	return biggest, n
}

// The 2020 AWS Lambda platform limits the paper enumerates in Section 3.
const (
	lambdaMinMemoryMB = 128
	lambdaMaxMemoryMB = 3008
	// lambdaMemPerVCPUMB is the memory that buys one vCPU (1 per 1.5 GB).
	lambdaMemPerVCPUMB = 1536
	// LambdaTmpBytes is an environment's /tmp ephemeral storage.
	LambdaTmpBytes = 512 << 20
	// LambdaMaxLifetime caps one invocation's run time.
	LambdaMaxLifetime = 15 * time.Minute
)

// LambdaConfig is a tenant-chosen function configuration.
type LambdaConfig struct {
	MemoryMB int
}

// Validate checks the configuration against the platform limits.
func (c LambdaConfig) Validate() error {
	if c.MemoryMB < lambdaMinMemoryMB || c.MemoryMB > lambdaMaxMemoryMB {
		return fmt.Errorf("cloud: lambda memory %d MB outside [%d, %d]",
			c.MemoryMB, lambdaMinMemoryMB, lambdaMaxMemoryMB)
	}
	return nil
}

// CPUShare returns the fraction of one vCPU the function receives
// (1 vCPU per 1536 MB, capped at 2 vCPUs at the top of the range).
func (c LambdaConfig) CPUShare() float64 {
	share := float64(c.MemoryMB) / lambdaMemPerVCPUMB
	if share > 2 {
		share = 2
	}
	return share
}

// EgressMbps models the memory-proportional, modest network bandwidth of a
// Lambda environment (gg [19] measured up to ~600 Mbps at the top memory
// size, "with variable performance"; bandwidth grows with memory). At
// 1536 MB this yields ~180 Mbps.
func (c LambdaConfig) EgressMbps() float64 {
	return 40 + 280*float64(c.MemoryMB)/3008
}
