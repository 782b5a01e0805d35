package eventlog

// Merge returns the events of the given buses as one stream ordered by
// TS, decoded once, straight from the buses' chunks into the result. At
// equal timestamps the earlier bus in the argument list goes first, and
// each bus keeps its own emission order, so a bus's events must already
// be time-nondecreasing for the result to be sorted — they are, since the
// virtual clock never runs backwards.
//
// Each bus's chunk list and string table are snapshotted under its own
// lock, one after the other, never two at once. A nil bus contributes
// nothing; when no bus holds an event, Merge returns nil. Merge of one
// bus is that bus's log in emission order.
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
			if len(cs[k].cur) == 0 {
				continue
			}
			live++
			if best < 0 || cs[k].cur[0].ts < cs[best].cur[0].ts {
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
			for len(c.cur) > 0 {
				n := len(out)
				out = out[:n+len(c.cur)]
				for i := range c.cur {
					c.cur[i].decode(&out[n+i], c.strs)
				}
				c.cur = nil
				c.advance()
			}
			return out
		}
		out = out[:len(out)+1]
		c.cur[0].decode(&out[len(out)-1], c.strs)
		c.cur = c.cur[1:]
		if len(c.cur) == 0 {
			c.advance()
		}
	}
}

// mergeCursor reads one bus's log as it stood at the snapshot.
type mergeCursor struct {
	cur  []record   // the unread records of the chunk being read
	full [][]record // the full chunks after cur
	last []record   // the last chunk, as long as it was at the snapshot
	strs []string   // the string table, as long as it was at the snapshot
}

// snapshot points c at b's log and returns how many events it holds. The
// full chunks are never written again, and later records and strings land
// past the snapshotted lengths of the last chunk and the string table, so
// c reads them without b's lock.
func (c *mergeCursor) snapshot(b *Bus) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return 0
	}
	k := len(b.chunks) - 1
	c.full, c.last = b.chunks[:k:k], b.chunks[k]
	c.strs = b.strs
	c.advance()
	return b.n
}

// advance moves cur to the next chunk that holds events, if any.
func (c *mergeCursor) advance() {
	for len(c.cur) == 0 {
		switch {
		case len(c.full) > 0:
			c.cur, c.full = c.full[0], c.full[1:]
		case c.last != nil:
			c.cur, c.last = c.last, nil
		default:
			return
		}
	}
}
