// Package rdd implements the logical dataset layer of the Spark-like
// engine: lineage-carrying datasets built from sources, narrow
// transformations, shuffles, and co-groups (joins), mirroring Spark's RDD
// abstraction [Zaharia et al., NSDI'12] closely enough that the paper's
// mechanisms — stage creation at shuffle boundaries, lineage-based
// recomputation, caching — have their natural home.
//
// Rows are untyped (any); workloads define their own row structs. Every
// dataset carries a CPU cost per processed row (abstract work units the
// executor model turns into time) and an average serialized row size (the
// byte volume the shuffle and I/O models move). Computation is real: rows
// actually flow and actions return actual results.
package rdd

import (
	"cmp"
	"fmt"
	"sort"
)

// Row is one record. Workloads use their own concrete types.
type Row = any

// Key is a shuffle key. It must be an int, int32, int64, uint64 or string
// so grouping can order deterministically.
type Key = any

// KV is the conventional keyed-row shape used by the built-in helpers.
type KV struct {
	K Key
	V any
}

// Group is all co-located rows for one key in a reduce partition. Rows are
// ordered by (map partition, original order), so reductions are
// deterministic.
type Group struct {
	Key  Key
	Rows []Row
}

// Kind discriminates dataset node types.
type Kind int

// Dataset node kinds.
const (
	KindSource Kind = iota + 1
	KindNarrow
	KindShuffled
	KindCoGrouped
)

func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindNarrow:
		return "narrow"
	case KindShuffled:
		return "shuffled"
	case KindCoGrouped:
		return "cogrouped"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Context numbers datasets within one logical plan (one application).
type Context struct {
	nextID int
	rdds   []*RDD
}

// NewContext returns an empty plan-building context.
func NewContext() *Context { return &Context{} }

// RDDs returns every dataset created in the context.
func (c *Context) RDDs() []*RDD { return append([]*RDD(nil), c.rdds...) }

func (c *Context) register(r *RDD) *RDD {
	r.ID = c.nextID
	c.nextID++
	c.rdds = append(c.rdds, r)
	return r
}

// RDD is one dataset node in the lineage graph.
type RDD struct {
	ctx  *Context
	ID   int
	Name string
	// Parts is the partition count of this dataset.
	Parts int
	Kind  Kind
	// Parents is empty for sources, 1 for narrow/shuffled, 2 for cogrouped.
	Parents []*RDD
	// Cached marks the dataset for per-executor in-memory caching.
	Cached bool

	// CostPerRow is CPU work (abstract units) per input row processed by
	// this node. RowBytes is the average serialized size of an output row.
	CostPerRow float64
	RowBytes   int

	// Gen materialises a source partition.
	Gen func(part int) []Row
	// NarrowFn transforms one parent partition (KindNarrow).
	NarrowFn func(part int, in []Row) []Row
	// KeyFn extracts the shuffle key from a parent row (KindShuffled).
	KeyFn func(Row) Key
	// MergeFn optionally combines two rows with equal keys (map-side and
	// reduce-side combining, as in reduceByKey).
	MergeFn func(a, b Row) Row
	// PostShuffleFn turns the grouped rows of a reduce partition into
	// output rows (KindShuffled).
	PostShuffleFn func(part int, groups []Group) []Row
	// LeftKeyFn/RightKeyFn key the two parents of a co-group.
	LeftKeyFn, RightKeyFn func(Row) Key
	// CoGroupFn joins the grouped sides of a reduce partition
	// (KindCoGrouped).
	CoGroupFn func(part int, left, right []Group) []Row
}

// Source creates a generator-backed dataset. costPerRow should include the
// cost of producing (reading/parsing) one row; rowBytes its in-flight size.
func (c *Context) Source(name string, parts int, gen func(part int) []Row, costPerRow float64, rowBytes int) *RDD {
	mustPositive(parts, name)
	if gen == nil {
		panic("rdd: nil generator for " + name)
	}
	return c.register(&RDD{
		ctx: c, Name: name, Parts: parts, Kind: KindSource,
		Gen: gen, CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// MapPartitions applies fn to each partition (narrow dependency).
func (r *RDD) MapPartitions(name string, fn func(part int, in []Row) []Row, costPerRow float64, rowBytes int) *RDD {
	if fn == nil {
		panic("rdd: nil narrow fn for " + name)
	}
	return r.ctx.register(&RDD{
		ctx: r.ctx, Name: name, Parts: r.Parts, Kind: KindNarrow,
		Parents: []*RDD{r}, NarrowFn: fn,
		CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// Map applies fn to each row.
func (r *RDD) Map(name string, fn func(Row) Row, costPerRow float64, rowBytes int) *RDD {
	return r.MapPartitions(name, func(_ int, in []Row) []Row {
		out := make([]Row, len(in))
		for i, row := range in {
			out[i] = fn(row)
		}
		return out
	}, costPerRow, rowBytes)
}

// Filter keeps rows where pred holds.
func (r *RDD) Filter(name string, pred func(Row) bool, costPerRow float64) *RDD {
	return r.MapPartitions(name, func(_ int, in []Row) []Row {
		out := in[:0:0]
		for _, row := range in {
			if pred(row) {
				out = append(out, row)
			}
		}
		return out
	}, costPerRow, r.RowBytes)
}

// FlatMap applies fn to each row and concatenates the results.
func (r *RDD) FlatMap(name string, fn func(Row) []Row, costPerRow float64, rowBytes int) *RDD {
	return r.MapPartitions(name, func(_ int, in []Row) []Row {
		var out []Row
		for _, row := range in {
			out = append(out, fn(row)...)
		}
		return out
	}, costPerRow, rowBytes)
}

// ReduceByKey shuffles parent rows by keyFn into parts partitions, merging
// rows with equal keys with mergeFn on both the map and reduce sides
// (Spark's reduceByKey with a map-side combiner).
func (r *RDD) ReduceByKey(name string, parts int, keyFn func(Row) Key, mergeFn func(a, b Row) Row, costPerRow float64, rowBytes int) *RDD {
	mustPositive(parts, name)
	return r.ctx.register(&RDD{
		ctx: r.ctx, Name: name, Parts: parts, Kind: KindShuffled,
		Parents: []*RDD{r}, KeyFn: keyFn, MergeFn: mergeFn,
		PostShuffleFn: func(_ int, groups []Group) []Row {
			out := make([]Row, len(groups))
			for i, g := range groups {
				row := g.Rows[0]
				for _, other := range g.Rows[1:] {
					row = mergeFn(row, other)
				}
				out[i] = row
			}
			return out
		},
		CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// GroupByKey shuffles parent rows by keyFn and emits one KV{key, []Row}
// per key (no combining — full data motion, like Spark's groupByKey).
func (r *RDD) GroupByKey(name string, parts int, keyFn func(Row) Key, costPerRow float64, rowBytes int) *RDD {
	mustPositive(parts, name)
	return r.ctx.register(&RDD{
		ctx: r.ctx, Name: name, Parts: parts, Kind: KindShuffled,
		Parents: []*RDD{r}, KeyFn: keyFn,
		PostShuffleFn: func(_ int, groups []Group) []Row {
			out := make([]Row, len(groups))
			for i, g := range groups {
				out[i] = KV{K: g.Key, V: g.Rows}
			}
			return out
		},
		CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// Exchange shuffles rows by keyFn without reducing — a raw repartition used
// by SQL-style plans before a custom PostShuffle step.
func (r *RDD) Exchange(name string, parts int, keyFn func(Row) Key, post func(part int, groups []Group) []Row, costPerRow float64, rowBytes int) *RDD {
	mustPositive(parts, name)
	if post == nil {
		post = func(_ int, groups []Group) []Row {
			var out []Row
			for _, g := range groups {
				out = append(out, g.Rows...)
			}
			return out
		}
	}
	return r.ctx.register(&RDD{
		ctx: r.ctx, Name: name, Parts: parts, Kind: KindShuffled,
		Parents: []*RDD{r}, KeyFn: keyFn, PostShuffleFn: post,
		CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// CoGroup shuffles both datasets by their key functions into parts
// partitions and applies joinFn to the grouped sides — the substrate for
// joins, semi-joins and anti-joins.
func (r *RDD) CoGroup(other *RDD, name string, parts int, leftKey, rightKey func(Row) Key, joinFn func(part int, left, right []Group) []Row, costPerRow float64, rowBytes int) *RDD {
	mustPositive(parts, name)
	if r.ctx != other.ctx {
		panic("rdd: co-group across contexts")
	}
	return r.ctx.register(&RDD{
		ctx: r.ctx, Name: name, Parts: parts, Kind: KindCoGrouped,
		Parents:   []*RDD{r, other},
		LeftKeyFn: leftKey, RightKeyFn: rightKey, CoGroupFn: joinFn,
		CostPerRow: costPerRow, RowBytes: rowBytes,
	})
}

// Join performs an inner equi-join emitting joinFn(leftRow, rightRow) for
// every matching pair.
func (r *RDD) Join(other *RDD, name string, parts int, leftKey, rightKey func(Row) Key, joinFn func(l, rr Row) Row, costPerRow float64, rowBytes int) *RDD {
	return r.CoGroup(other, name, parts, leftKey, rightKey,
		func(_ int, left, right []Group) []Row {
			rightByKey := make(map[Key][]Row, len(right))
			for _, g := range right {
				rightByKey[g.Key] = g.Rows
			}
			var out []Row
			for _, lg := range left {
				for _, lr := range lg.Rows {
					for _, rr := range rightByKey[lg.Key] {
						out = append(out, joinFn(lr, rr))
					}
				}
			}
			return out
		}, costPerRow, rowBytes)
}

// Cache marks the dataset for executor-memory caching and returns it.
func (r *RDD) Cache() *RDD {
	r.Cached = true
	return r
}

// String renders the node for debugging.
func (r *RDD) String() string {
	return fmt.Sprintf("RDD[%d %s %s x%d]", r.ID, r.Name, r.Kind, r.Parts)
}

// Lineage returns the transitive closure of r's ancestry including r,
// deterministically ordered by ID.
func (r *RDD) Lineage() []*RDD {
	seen := map[int]*RDD{}
	var walk func(*RDD)
	walk = func(n *RDD) {
		if _, ok := seen[n.ID]; ok {
			return
		}
		seen[n.ID] = n
		for _, p := range n.Parents {
			walk(p)
		}
	}
	walk(r)
	out := make([]*RDD, 0, len(seen))
	for _, n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func mustPositive(parts int, name string) {
	if parts <= 0 {
		panic("rdd: non-positive partition count for " + name)
	}
}

// KeyLess orders two shuffle keys of the same supported type. It is used
// to sort groups deterministically.
func KeyLess(a, b Key) bool { return KeyCompare(a, b) < 0 }

// KeyCompare returns -1, 0 or +1 as a orders before, equal to or after b,
// two shuffle keys of the same supported type, in KeyLess's order.
func KeyCompare(a, b Key) int {
	switch av := a.(type) {
	case int:
		return cmp.Compare(av, b.(int))
	case int32:
		return cmp.Compare(av, b.(int32))
	case int64:
		return cmp.Compare(av, b.(int64))
	case uint64:
		return cmp.Compare(av, b.(uint64))
	case string:
		return cmp.Compare(av, b.(string))
	default:
		panic(fmt.Sprintf("rdd: unsupported key type %T", a))
	}
}

// HashKey hashes a supported key type to a bucket in [0, parts).
func HashKey(k Key, parts int) int {
	var h uint64
	switch kv := k.(type) {
	case int:
		h = mix(uint64(kv))
	case int32:
		h = mix(uint64(kv))
	case int64:
		h = mix(uint64(kv))
	case uint64:
		h = mix(kv)
	case string:
		h = 14695981039346656037
		for i := 0; i < len(kv); i++ {
			h ^= uint64(kv[i])
			h *= 1099511628211
		}
		h = mix(h)
	default:
		panic(fmt.Sprintf("rdd: unsupported key type %T", k))
	}
	return int(h % uint64(parts))
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
