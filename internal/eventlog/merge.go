package eventlog

// Merge returns the events of the given buses as one stream ordered by
// TS, decoded once, straight from the buses' chunks into the result. At
// equal timestamps the earlier bus in the argument list goes first, and
// each bus keeps its own emission order, so a bus's events must already
// be time-nondecreasing for the result to be sorted — they are, since the
// virtual clock never runs backwards.
//
// Each bus's records, wide entries, string table and kind table are
// snapshotted under its own lock, one after the other, never two at
// once. A nil bus contributes nothing; when no bus holds an event, Merge
// returns nil. Merge of one bus is that bus's log in emission order.
func Merge(buses ...*Bus) []Event {
	// The cursors live on the stack for the bus counts the simulator uses
	// (one per shard plus the manager's), so Merge allocates only its
	// result.
	var small [8]mergeCursor
	cs := small[:0]
	if len(buses) > len(small) {
		cs = make([]mergeCursor, 0, len(buses))
	}
	total := 0
	for _, b := range buses {
		var c mergeCursor
		total += c.snapshot(b)
		cs = append(cs, c)
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for {
		// The least (TS, bus index) head goes next.
		best, live := -1, 0
		for k := range cs {
			if len(cs[k].recs.cur) == 0 {
				continue
			}
			live++
			if best < 0 || cs[k].recs.cur[0].ts < cs[best].recs.cur[0].ts {
				best = k
			}
		}
		if best < 0 {
			return out
		}
		c := &cs[best]
		if live == 1 {
			// The last stream left (the only one, for Bus.Events) is
			// decoded a chunk at a time.
			for cur := c.recs.cur; len(cur) > 0; cur = c.recs.cur {
				n := len(out)
				out = out[:n+len(cur)]
				for i := range cur {
					c.dec.decode(&cur[i], &out[n+i])
				}
				c.recs.cur = nil
				c.recs.advance()
			}
			return out
		}
		out = out[:len(out)+1]
		c.dec.decode(c.recs.next(), &out[len(out)-1])
	}
}

// mergeCursor reads one bus's log as it stood at the snapshot.
type mergeCursor struct {
	recs colReader[record]
	dec  decoder
}

// snapshot points c at b's log and returns how many events it holds.
func (c *mergeCursor) snapshot(b *Bus) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c.recs = b.recs.reader()
	c.dec = b.newDecoder()
	return b.recs.n
}
