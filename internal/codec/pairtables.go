package codec

// The pair tables: the static prefix codes a rice block's pair string is
// written in (payload.go). A channel's samples are coded as tokens
// min(v>>k, riceEscape) — 0..8, the last one marking an escape — taken two
// at a time from the same channel, samples j and j+4 (one pixel and the
// next), so a code covers a pair of tokens (a, b) and the common pair
// (0, 0) can cost less than a bit per sample, which no per-sample code can.
//
// There are pairTables tables. Tables 0..unaryTable-1 are canonical codes
// given by the integer code lengths in pairLens below, fitted on the codec's
// test corpus (TestPairTablesRegenerate re-derives them and documents the
// rule); they serve k = 0 channels, the table picked per channel by cost.
// unaryTable is the unary pair code, bit for bit the code the pair string
// replaced: a zeros and a one, then b zeros and a one. It serves the k = 0
// channels no fitted table beats and every k >= 1 channel.
//
// Codes and decode tables are built from the integers at init, with no
// floating point, so the bitstream is the same on every architecture.

const (
	// pairTokens is the token alphabet: 0..riceEscape.
	pairTokens = riceEscape + 1
	// pairSyms is the number of token pairs; pairLens lists pair (a, b) at
	// index a*pairTokens+b. Inside the coder a pair is the byte a<<4|b.
	pairSyms = pairTokens * pairTokens

	pairTables = 8
	unaryTable = pairTables - 1

	// maxPairLen is the length limit of every table: the unary pair code's
	// longest code, two escapes.
	maxPairLen = 2 * (riceEscape + 1)

	// pairRun is how many pair codes of at most maxPairLen bits fit a word
	// behind 7 pending bits: the writer flushes after every run, and the
	// reader makes a run of lookups, each taking one code or two shorter
	// ones, from one word.
	pairRun = 3

	// The decoder looks one code up by its first lutBits bits — two codes
	// when both end inside them — and a longer code by the next secBits in
	// a second-level table.
	lutBits = 10
	secBits = maxPairLen - lutBits

	// costRun is how many pair codes of at most maxPairLen bits a byte
	// lane sums.
	costRun = 255 / maxPairLen

	// An encoder table entry is the code, LSB-first (the order it is
	// written in), with its length at codeLenShift.
	codeLenShift = 24

	// A decoder table entry describes the one or two codes its bits start
	// with: the bits it takes in bits 0-5 (the decoder shifts its word by
	// the entry as it is); the pairs it decodes, 1 or 2, in bits 6-7; their
	// tokens a, b, a, b in the nibbles of bits 8-23; for two pairs the
	// first code's length in bits 24-27; and the largest token in bits
	// 28-31. That top nibble is lutNone when no code starts with these
	// bits, and lutLong on a first-level entry whose bits 8-23 index the
	// second level instead: both exceed any token, so one comparison with
	// the largest token a block allows keeps the fast path to the codes it
	// may take.
	lutLenMask  = 63
	lutMaxShift = 28
	lutLong     = 14
	lutNone     = 15
)

// A run of pairRun codes and 7 pending bits fit a word.
const _ uint = 64 - 7 - pairRun*maxPairLen

// pairLens holds the code lengths of the fitted tables, by pair index
// a*pairTokens+b. Generated by TestPairTablesRegenerate (run it with
// -regen-pair-tables to rewrite this file); do not edit by hand.
var pairLens = [unaryTable][pairSyms]uint8{
	{1, 3, 4, 9, 10, 17, 17, 18, 11, 3, 5, 5, 11, 11, 18, 17, 18, 13, 4, 5, 6, 11, 11, 18, 17, 18, 15, 8, 11, 10, 15, 17, 18, 18, 18, 16, 10, 10, 11, 18, 15, 18, 18, 18, 18, 12, 18, 13, 18, 18, 18, 18, 18, 18, 13, 13, 16, 17, 18, 18, 18, 18, 18, 16, 17, 15, 18, 18, 18, 17, 18, 18, 10, 12, 14, 17, 18, 18, 18, 18, 14},
	{1, 3, 4, 10, 10, 11, 11, 11, 7, 4, 7, 4, 12, 9, 12, 13, 12, 10, 4, 4, 8, 9, 12, 13, 13, 14, 9, 10, 12, 9, 13, 12, 13, 17, 12, 12, 9, 9, 12, 12, 13, 18, 13, 18, 10, 11, 12, 13, 13, 17, 12, 17, 12, 13, 10, 12, 12, 17, 13, 17, 12, 18, 12, 11, 12, 13, 12, 17, 12, 18, 13, 14, 7, 10, 9, 12, 10, 13, 12, 14, 8},
	{1, 3, 5, 8, 10, 12, 13, 15, 7, 3, 4, 6, 8, 12, 12, 15, 16, 10, 5, 6, 6, 13, 8, 14, 13, 18, 11, 8, 7, 13, 7, 18, 9, 18, 16, 13, 10, 13, 8, 18, 7, 18, 10, 18, 15, 12, 12, 15, 10, 17, 9, 18, 13, 14, 12, 15, 13, 18, 10, 18, 11, 18, 15, 15, 15, 17, 15, 18, 13, 18, 14, 16, 7, 10, 11, 13, 14, 14, 15, 16, 8},
	{1, 5, 3, 9, 9, 9, 10, 10, 7, 5, 8, 5, 12, 11, 13, 12, 11, 9, 3, 5, 5, 12, 10, 15, 11, 16, 9, 9, 11, 11, 11, 17, 12, 18, 11, 11, 9, 12, 10, 18, 10, 18, 11, 18, 10, 10, 12, 12, 12, 18, 12, 16, 10, 10, 9, 16, 11, 18, 11, 18, 11, 18, 10, 10, 11, 12, 12, 18, 11, 18, 9, 9, 6, 9, 9, 10, 10, 10, 9, 9, 6},
	{1, 5, 4, 7, 7, 8, 8, 9, 7, 4, 7, 5, 8, 8, 9, 10, 9, 9, 4, 5, 6, 8, 8, 11, 9, 11, 8, 7, 8, 8, 8, 9, 8, 13, 10, 11, 7, 8, 8, 9, 8, 14, 8, 14, 9, 8, 9, 10, 8, 13, 7, 13, 8, 12, 8, 11, 9, 14, 8, 14, 7, 14, 9, 9, 9, 11, 9, 13, 8, 14, 9, 12, 7, 9, 8, 11, 9, 13, 9, 11, 8},
	{2, 3, 3, 8, 8, 10, 10, 11, 9, 4, 5, 4, 7, 7, 10, 11, 11, 10, 3, 4, 5, 7, 8, 11, 10, 12, 10, 8, 8, 7, 7, 8, 8, 14, 12, 13, 8, 7, 7, 8, 8, 15, 10, 15, 11, 9, 9, 11, 9, 14, 10, 16, 12, 15, 10, 11, 10, 15, 10, 18, 11, 18, 13, 11, 11, 12, 12, 16, 13, 17, 15, 17, 9, 10, 10, 12, 11, 15, 12, 17, 10},
	{2, 3, 3, 10, 9, 14, 15, 18, 10, 3, 5, 4, 8, 10, 14, 18, 18, 13, 3, 4, 4, 11, 8, 16, 16, 18, 12, 9, 9, 10, 10, 17, 12, 17, 18, 15, 9, 11, 8, 18, 9, 18, 18, 18, 16, 12, 14, 14, 15, 18, 16, 18, 18, 17, 12, 13, 14, 18, 16, 18, 18, 18, 17, 15, 15, 16, 18, 17, 18, 18, 18, 18, 10, 12, 11, 16, 15, 18, 17, 17, 12},
}

// pairLUT decodes one table: first by the next lutBits bits, where two
// codes that fit them decode together, then, for a longer code, by the
// secBits after them in sec.
type pairLUT struct {
	prim [1 << lutBits]uint32
	sec  []uint32
}

// firstPair returns decoder entry e cut to its first pair: what a channel's
// last pair decodes, since the bits after it are not the channel's.
func firstPair(e uint32) uint32 {
	l1 := e >> 24 & 15
	if l1 == 0 {
		return e
	}
	a, b := e>>8&15, e>>12&15
	return l1 | 1<<6 | a<<8 | b<<12 | max(a, b)<<lutMaxShift
}

// pairCoder holds every table in the forms the coder uses.
type pairCoder struct {
	// code is the encoder's table t, by pair a<<4|b: the LSB-first code
	// with its length at codeLenShift.
	code [pairTables][256]uint32
	// cost holds every table's code length of pair a<<4|b, table t in
	// byte lane t, so one pass over a channel adds up its cost in all
	// eight tables, a word per pair; costRun pairs fit a byte lane.
	cost [256]uint64
	lut  [pairTables]pairLUT
}

var pairs = newPairCoder()

// tableLens returns table t's code lengths and LSB-first codes by pair
// index.
func tableLens(t int) (lens [pairSyms]uint8, codes [pairSyms]uint32) {
	if t == unaryTable {
		for i := range lens {
			a, b := i/pairTokens, i%pairTokens
			lens[i] = uint8(a + b + 2)
			codes[i] = 1<<a | 1<<(a+1+b)
		}
		return lens, codes
	}
	return pairLens[t], canonicalCodes(&pairLens[t])
}

// canonicalCodes assigns the canonical prefix code of the given lengths:
// codes of one length are consecutive, in pair order, and shorter codes
// come first. Each is returned bit-reversed, first bit lowest.
func canonicalCodes(lens *[pairSyms]uint8) (codes [pairSyms]uint32) {
	var count [maxPairLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [maxPairLen + 1]uint32
	code := uint32(0)
	for l := 1; l <= maxPairLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for i, l := range lens {
		c := next[l]
		next[l]++
		for b := uint8(0); b < l; b++ { // reverse the l bits
			codes[i] = codes[i]<<1 | c>>b&1
		}
	}
	return codes
}

func newPairCoder() *pairCoder {
	pc := new(pairCoder)
	for t := range pc.code {
		lens, codes := tableLens(t)
		l := &pc.lut[t]
		for x := range l.prim {
			l.prim[x] = lutNone << lutMaxShift
		}
		for i, n := range lens {
			a, b := i/pairTokens, i%pairTokens
			sym := a<<4 | b
			pc.code[t][sym] = codes[i] | uint32(n)<<codeLenShift
			pc.cost[sym] |= uint64(n) << (8 * t)
			e := uint32(n) | 1<<6 | uint32(a)<<8 | uint32(b)<<12 | uint32(max(a, b))<<lutMaxShift
			r := codes[i]
			if n <= lutBits {
				for x := r; x < 1<<lutBits; x += 1 << n {
					l.prim[x] = e
				}
				continue
			}
			p := r & (1<<lutBits - 1)
			if l.prim[p]>>lutMaxShift != lutLong {
				l.prim[p] = lutLong<<lutMaxShift | uint32(len(l.sec))<<8
				for range 1 << secBits {
					l.sec = append(l.sec, lutNone<<lutMaxShift)
				}
			}
			base := l.prim[p] >> 8 & 0xFFFF
			for x := r >> lutBits; x < 1<<secBits; x += 1 << (n - lutBits) {
				l.sec[base+x] = e
			}
		}
		// Where a second code ends inside the lutBits, the entry takes
		// both.
		single := l.prim
		for x, e := range single {
			l1 := e & lutLenMask
			if e>>lutMaxShift >= lutLong || l1 >= lutBits {
				continue
			}
			e2 := single[x>>l1]
			l2 := e2 & lutLenMask
			if e2>>lutMaxShift >= lutLong || l1+l2 > lutBits {
				continue
			}
			l.prim[x] = (l1 + l2) | 2<<6 | e&0xFF00 | (e2&0xFF00)<<8 | l1<<24 | max(e>>lutMaxShift, e2>>lutMaxShift)<<lutMaxShift
		}
	}
	return pc
}
