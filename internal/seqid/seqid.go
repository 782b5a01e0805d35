// Package seqid builds the simulator's sequence-numbered IDs (Lambda
// "la-007", executor "j012-v03", job "j012") without fmt: they are made
// once per job, executor and Lambda launch, on the simulator's hot path.
package seqid

import "strconv"

// Append appends n in decimal to dst, zero-padded to width characters:
// the bytes fmt's %0<width>d writes. n is a sequence number and must not
// be negative.
func Append(dst []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}
