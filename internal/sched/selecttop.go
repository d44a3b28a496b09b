// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// selectTop is the pattern-defeating quicksort of Go's sort package
// (sort/zsortinterface.go, generated by sort/gen_sort_variants.go),
// specialized to beam candidates and cut short once the first k
// positions are final.

package sched

import "math/bits"

// selectTop rearranges c so that c[:k] holds, in order, exactly what
// sort.Sort with beamCand.less would leave there, ties included, in
// expected O(len(c)) time.
//
// It runs sort.Sort's algorithm step for step but never enters a range
// that starts at or after k. Every step permutes only the range it works
// on, and the bookkeeping a range hands on to its sub-ranges does not
// depend on the ranges skipped, so c[:k] ends as under the full sort.
func selectTop(c []beamCand, k int) {
	selectRange(c, 0, len(c), bits.Len(uint(len(c))), k)
}

// less is the order the beam keeps its best candidates in: lower peak,
// then lower net alive change, then lower node index. Candidates from
// different parents may tie; selectTop orders those exactly as sort.Sort
// does.
func (c *beamCand) less(d *beamCand) bool {
	if c.peak != d.peak {
		return c.peak < d.peak
	}
	if c.delta != d.delta {
		return c.delta < d.delta
	}
	return c.v < d.v
}

// selectRange is pdqsort on c[a:b] with limit bad pivots left, stopping
// at ranges that begin at or after k.
func selectRange(c []beamCand, a, b, limit, k int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for a < k {
		length := b - a

		if length <= maxInsertion {
			insertionSort(c, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSort(c, a, b)
			return
		}

		// If the last partitioning was imbalanced, break patterns.
		if !wasBalanced {
			breakPatterns(c, a, b)
			limit--
		}

		pivot, hint := choosePivot(c, a, b)
		if hint == decreasingHint {
			reverseRange(c, a, b)
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSort(c, a, b) {
				return
			}
		}

		// Probably many duplicates: split into elements equal to and
		// greater than the pivot.
		if a > 0 && !c[a-1].less(&c[pivot]) {
			a = partitionEqual(c, a, b, pivot)
			continue
		}

		mid, alreadyPartitioned := partition(c, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			selectRange(c, a, mid, limit, k)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			selectRange(c, mid+1, b, limit, k)
			b = mid
		}
	}
}

func insertionSort(c []beamCand, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && c[j].less(&c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// siftDown implements the heap property on c[lo:hi]; first is the offset
// of the heap's root.
func siftDown(c []beamCand, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && c[first+child].less(&c[first+child+1]) {
			child++
		}
		if !c[first+root].less(&c[first+child]) {
			return
		}
		c[first+root], c[first+child] = c[first+child], c[first+root]
		root = child
	}
}

func heapSort(c []beamCand, a, b int) {
	first, lo, hi := a, 0, b-a
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDown(c, i, hi, first)
	}
	for i := hi - 1; i >= 0; i-- {
		c[first], c[first+i] = c[first+i], c[first]
		siftDown(c, lo, i, first)
	}
}

// partition moves c[a:b] around the pivot p so that c[i] < p for i <
// newpivot and c[j] >= p for j > newpivot, with c[newpivot] = p.
func partition(c []beamCand, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	c[a], c[pivot] = c[pivot], c[a]
	i, j := a+1, b-1 // inclusive bounds of what is left to partition

	for i <= j && c[i].less(&c[a]) {
		i++
	}
	for i <= j && !c[j].less(&c[a]) {
		j--
	}
	if i > j {
		c[j], c[a] = c[a], c[j]
		return j, true
	}
	c[i], c[j] = c[j], c[i]
	i++
	j--

	for {
		for i <= j && c[i].less(&c[a]) {
			i++
		}
		for i <= j && !c[j].less(&c[a]) {
			j--
		}
		if i > j {
			break
		}
		c[i], c[j] = c[j], c[i]
		i++
		j--
	}
	c[j], c[a] = c[a], c[j]
	return j, false
}

// partitionEqual splits c[a:b], which holds nothing below c[pivot], into
// elements equal to the pivot followed by greater ones.
func partitionEqual(c []beamCand, a, b, pivot int) (newpivot int) {
	c[a], c[pivot] = c[pivot], c[a]
	i, j := a+1, b-1

	for {
		for i <= j && !c[a].less(&c[i]) {
			i++
		}
		for i <= j && c[a].less(&c[j]) {
			j--
		}
		if i > j {
			break
		}
		c[i], c[j] = c[j], c[i]
		i++
		j--
	}
	return i
}

// partialInsertionSort partially sorts c[a:b] and reports whether it is
// sorted at the end.
func partialInsertionSort(c []beamCand, a, b int) bool {
	const (
		maxSteps         = 5  // adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !c[i].less(&c[i-1]) {
			i++
		}
		if i == b {
			return true
		}
		if b-a < shortestShifting {
			return false
		}
		c[i], c[i-1] = c[i-1], c[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !c[j].less(&c[j-1]) {
					break
				}
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !c[j].less(&c[j-1]) {
					break
				}
				c[j], c[j-1] = c[j-1], c[j]
			}
		}
	}
	return false
}

// breakPatterns scatters some elements around to break patterns that
// might cause imbalanced partitions.
func breakPatterns(c []beamCand, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := uint(1) << bits.Len(uint(length))
		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			c[idx], c[a+other] = c[a+other], c[idx]
		}
	}
}

type xorshift uint64

func (r *xorshift) next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

type sortedHint int

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// choosePivot picks a pivot in c[a:b]: a static one below 8 elements,
// the median of three below 50, Tukey's ninther beyond.
func choosePivot(c []beamCand, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)
	l := b - a
	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)
	if l >= 8 {
		if l >= shortestNinther {
			i = median(c, i-1, i, i+1, &swaps)
			j = median(c, j-1, j, j+1, &swaps)
			k = median(c, k-1, k, k+1, &swaps)
		}
		j = median(c, i, j, k, &swaps)
	}
	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2 returns x, y with c[x] <= c[y], where x, y is a, b or b, a.
func order2(c []beamCand, a, b int, swaps *int) (int, int) {
	if c[b].less(&c[a]) {
		*swaps++
		return b, a
	}
	return a, b
}

// median returns the index of the median of c[a], c[b], c[d].
func median(c []beamCand, a, b, d int, swaps *int) int {
	a, b = order2(c, a, b, swaps)
	b, d = order2(c, b, d, swaps)
	_, b = order2(c, a, b, swaps)
	return b
}

func reverseRange(c []beamCand, a, b int) {
	for i, j := a, b-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
}
