package hdfs

import (
	"splitserve/internal/telemetry"
)

// hdfsInstruments are the filesystem's resolved telemetry handles. On a
// nil hub every handle is nil and each operation is a no-op.
type hdfsInstruments struct {
	bytesWritten *telemetry.Counter
	bytesRead    *telemetry.Counter
	writeSecs    *telemetry.Histogram
	readSecs     *telemetry.Histogram

	opWrite *telemetry.Counter
	opRead  *telemetry.Counter
}

// SetTelemetry points the filesystem at a telemetry hub. A nil hub (or
// never calling) leaves it untelemetered. hdfs_namespace_ops_total keeps
// its delete, rename, stat and list series, which stay 0: the shuffle
// path only writes and reads (RemoveDir is not modelled, so it counts no
// delete), and the exported metric set is a format.
func (c *Cluster) SetTelemetry(h *telemetry.Hub) {
	op := func(name string) *telemetry.Counter {
		return h.Counter("hdfs_namespace_ops_total", telemetry.L("op", name))
	}
	c.insts = hdfsInstruments{
		bytesWritten: h.Counter("hdfs_bytes_written_total"),
		bytesRead:    h.Counter("hdfs_bytes_read_total"),
		writeSecs:    h.Histogram("hdfs_write_seconds", nil),
		readSecs:     h.Histogram("hdfs_read_seconds", nil),
		opWrite:      op("write"),
		opRead:       op("read"),
	}
	for _, name := range []string{"delete", "rename", "stat", "list"} {
		op(name)
	}
}
