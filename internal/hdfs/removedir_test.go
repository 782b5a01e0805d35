package hdfs

import (
	"bytes"
	"errors"
	"testing"

	"splitserve/internal/eventlog"
	"splitserve/internal/simclock"
	"splitserve/internal/storage"
	"splitserve/internal/telemetry"
)

// writeAll creates every path (1 KiB each) and runs the clock dry.
func (f *fixture) writeAll(t *testing.T, paths ...string) {
	t.Helper()
	for _, p := range paths {
		f.write(p, []int{len(p)}, 1<<10, func(err error) {
			if err != nil {
				t.Errorf("write %s: %v", p, err)
			}
		})
	}
	f.clock.Run()
}

// readErr reads path to completion and returns the read's error.
func (f *fixture) readErr(path string) error {
	var got error
	f.read(path, f.cl, func(_ storage.Block, err error) { got = err })
	f.clock.Run()
	return got
}

func TestRemoveDirLeavesSiblings(t *testing.T) {
	gone := []string{"/shuffle/app-1/e1/shuffle_0_0_0", "/shuffle/app-1/e2/shuffle_0_1_0"}
	kept := []string{
		"/shuffle/app-10/e1/shuffle_0_0_0", // shares the name's prefix
		"/shuffle/app-2/e1/shuffle_0_0_0",
		"/shuffle/app-1", // a file, not the directory
		"/other/app-1/f",
	}
	for _, dir := range []string{"/shuffle/app-1/", "/shuffle/app-1"} {
		t.Run(dir, func(t *testing.T) {
			f := newFixture()
			f.writeAll(t, append(append([]string(nil), gone...), kept...)...)
			f.fs.RemoveDir(dir)
			if got, want := f.fs.FileCount(), len(kept); got != want {
				t.Fatalf("FileCount = %d after removing %d of %d files, want %d", got, len(gone), len(gone)+len(kept), want)
			}
			for _, p := range gone {
				if err := f.readErr(p); !errors.Is(err, ErrNotFound) {
					t.Errorf("read removed %s: err = %v, want ErrNotFound", p, err)
				}
			}
			for _, p := range kept {
				if err := f.readErr(p); err != nil {
					t.Errorf("read kept %s: %v", p, err)
				}
			}
		})
	}
}

func TestRemoveDirMissingIsNoOp(t *testing.T) {
	f := newFixture()
	f.fs.RemoveDir("/shuffle/app-1/") // empty namespace
	f.writeAll(t, "/shuffle/app-2/e1/a", "/shuffle/app-2/e1/b")
	f.fs.RemoveDir("/shuffle/app-1/")
	f.fs.RemoveDir("/shuffle/app-2/e1/a/") // a file is not a directory
	if got := f.fs.FileCount(); got != 2 {
		t.Fatalf("FileCount = %d, want 2", got)
	}
}

// TestRemoveDirIsSilent: removal is not modelled, so it moves no virtual
// time, queues nothing on the clock, emits no event and counts nothing.
func TestRemoveDirIsSilent(t *testing.T) {
	f := newFixture()
	bus := eventlog.NewBus(simclock.Epoch)
	f.fs.SetEventLog(bus, "app-1")
	hub := telemetry.NewUntraced()
	f.fs.SetTelemetry(hub)
	f.writeAll(t, "/shuffle/app-1/e1/a", "/shuffle/app-1/e1/b")
	var before bytes.Buffer
	if err := hub.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	now, pending, events := f.clock.Now(), f.clock.Pending(), bus.Len()

	f.fs.RemoveDir("/shuffle/app-1/")

	var after bytes.Buffer
	if err := hub.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if f.clock.Now() != now || f.clock.Pending() != pending || bus.Len() != events {
		t.Errorf("RemoveDir moved the clock to %v (queue %d -> %d) or emitted %d events",
			f.clock.Now().Sub(now), pending, f.clock.Pending(), bus.Len()-events)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("RemoveDir changed the telemetry:\n%s\nwant\n%s", after.Bytes(), before.Bytes())
	}
	if f.fs.FileCount() != 0 {
		t.Fatalf("FileCount = %d, want 0", f.fs.FileCount())
	}
}

// TestRemoveDirCoversWritesInFlight: a write issued before the removal
// whose namenode round trip lands after it creates nothing under the
// removed directory, yet completes as it would have; a write issued after
// the removal re-creates the directory.
func TestRemoveDirCoversWritesInFlight(t *testing.T) {
	f := newFixture()
	var early, late error = errors.New("not done"), errors.New("not done")
	f.fs.PutAll([]storage.Block{
		{ID: "/shuffle/app-1/e1/a", Size: 10},
		{ID: "/shuffle/app-2/e1/a", Size: 10},
	}, f.cl, func(err error) { early = err })
	f.fs.RemoveDir("/shuffle/app-1/")
	f.write("/shuffle/app-1/e2/a", nil, 10, func(err error) { late = err })
	f.clock.Run()
	if early != nil || late != nil {
		t.Fatalf("writes ended with %v and %v, want nil", early, late)
	}
	if err := f.readErr("/shuffle/app-1/e1/a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("write in flight at removal: read err = %v, want ErrNotFound", err)
	}
	for _, p := range []string{"/shuffle/app-2/e1/a", "/shuffle/app-1/e2/a"} {
		if err := f.readErr(p); err != nil {
			t.Errorf("read %s: %v", p, err)
		}
	}
	if got := f.fs.FileCount(); got != 2 {
		t.Fatalf("FileCount = %d, want 2", got)
	}
	if len(f.fs.removed) != 0 {
		t.Fatalf("%d removals kept after every write landed", len(f.fs.removed))
	}
}

func TestRemoveDirOnEmptyNamespaceAllocatesNothing(t *testing.T) {
	f := newFixture()
	if n := testing.AllocsPerRun(100, func() { f.fs.RemoveDir("/shuffle/app-1/") }); n != 0 {
		t.Fatalf("RemoveDir on an empty namespace: %v allocations, want 0", n)
	}
}
