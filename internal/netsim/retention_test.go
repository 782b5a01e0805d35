package netsim

import (
	"runtime"
	"testing"
	"weak"
)

// doneCapturing returns a completion callback that closes over a fresh
// object, and a weak pointer to that object. In the simulator the
// callback reaches a task and, through it, the task's whole engine.
func doneCapturing(calls *int) (func(), weak.Pointer[[64]byte]) {
	obj := new([64]byte)
	return func() { obj[0]++; *calls++ }, weak.Make(obj)
}

// TestLeakFinishedFlow: pools outlive the flows that
// cross them (a VM's NIC, a Lambda's egress), so once a flow is done its
// callback must not be reachable from any pool or from the network —
// including through the vacated tail of a flow slice's backing array.
func TestLeakFinishedFlow(t *testing.T) {
	c, n := newNet()
	nic := n.NewPool("nic", 100)
	ebs := n.NewPool("ebs", 100)
	var calls int
	var captured []weak.Pointer[[64]byte]
	// The long flow keeps both pools busy while the short ones finish,
	// then finishes itself.
	for _, bytes := range []float64{100, 500, 2000} {
		done, w := doneCapturing(&calls)
		n.StartFlow(bytes, 0, []*Pool{nic, ebs}, done)
		captured = append(captured, w)
	}
	c.Run()
	runtime.GC()
	if calls != len(captured) {
		t.Fatalf("%d of %d flows completed", calls, len(captured))
	}
	for i, w := range captured {
		if w.Value() != nil {
			t.Errorf("flow %d's done callback is still reachable after it finished", i)
		}
	}
	runtime.KeepAlive(nic)
	runtime.KeepAlive(ebs)
	runtime.KeepAlive(n)
}

// TestLeakCancelledFlow: a cancelled flow leaves no
// pointer behind either.
func TestLeakCancelledFlow(t *testing.T) {
	c, n := newNet()
	nic := n.NewPool("nic", 100)
	var calls int
	n.StartFlow(1000, 0, []*Pool{nic}, nil)
	done, captured := doneCapturing(&calls)
	f := n.StartFlow(1000, 0, []*Pool{nic}, done)
	done = nil
	if !n.Cancel(f) {
		t.Fatal("Cancel of an active flow returned false")
	}
	f = nil
	c.Run()
	runtime.GC()
	if calls != 0 {
		t.Fatal("a cancelled flow's done callback ran")
	}
	if captured.Value() != nil {
		t.Error("the cancelled flow's done callback is still reachable")
	}
	runtime.KeepAlive(nic)
	runtime.KeepAlive(n)
}
