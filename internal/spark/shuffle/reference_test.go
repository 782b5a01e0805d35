package shuffle

import (
	"sort"

	"splitserve/internal/spark/rdd"
)

// refRegroup is the map-of-slices Regroup that the counting placement in
// shuffle.go replaced, kept as the reference the differential and fuzz
// tests hold Regroup to. Do not optimise it.
func refRegroup(bucketsByMap [][]rdd.Row, keyFn func(rdd.Row) rdd.Key) []rdd.Group {
	order := make([]rdd.Key, 0)
	byKey := make(map[rdd.Key][]rdd.Row)
	for _, bucket := range bucketsByMap {
		for _, row := range bucket {
			k := keyFn(row)
			if _, ok := byKey[k]; !ok {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], row)
		}
	}
	sort.Slice(order, func(i, j int) bool { return rdd.KeyLess(order[i], order[j]) })
	groups := make([]rdd.Group, len(order))
	for i, k := range order {
		groups[i] = rdd.Group{Key: k, Rows: byKey[k]}
	}
	return groups
}
