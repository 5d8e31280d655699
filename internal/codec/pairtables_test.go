package codec

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"sort"
	"strings"
	"testing"
)

var regenPairTables = flag.Bool("regen-pair-tables", false, "rewrite pairLens in pairtables.go from the fit")

// pairHist is one block channel's pair counts, sparse: pair index
// a*pairTokens+b and count.
type pairHist []struct{ sym, n uint32 }

// pairCorpus collects the pair histogram of every k = 0 rice channel the
// coder plans for the fitting corpus: 640×360 game frames (lossless, 16-row
// tiles; the first frame's tiles without a reference, the rest against the
// tile of the frame before) and every tile contentTiles yields. A block of
// a tile with a reference is planned as appendPayload plans it: the
// temporal delta over every mode, the content over H, V and planar. The
// corpus keeps the plan with the lower estimate, where the coder keeps the
// domain whose block codes shorter in these very tables: choosing by the
// estimate keeps the corpus, and with it the fit, independent of the
// tables.
func pairCorpus() []pairHist {
	var corpus []pairHist
	var zz, zzA [4][blockBytes]byte
	add := func(src, ref []byte, rowBytes int) {
		sig := refDelta(src, ref)
		for i := 0; i < len(src); i += blockBytes {
			end := min(i+blockBytes, len(src))
			if allZero(sig[i:end]) {
				continue
			}
			n := end - i
			p := planBlock(&zz, sig, i, end, rowBytes, 0)
			res := &zz[p.mode]
			if ref != nil {
				if a := planBlock(&zzA, src, i, end, rowBytes, modeLeft); a.est < p.est {
					p, res = a, &zzA[a.mode]
				}
			}
			if p.est+8*riceOverhead > 8*n {
				continue
			}
			for c, k := range p.params(res, n) {
				if k != 0 {
					continue
				}
				var counts [pairSyms]uint32
				for j := c; j < n; j += 8 {
					sym := refPairSym(res[j], res[j+4], p.s)
					counts[int(sym>>4)*pairTokens+int(sym&15)]++
				}
				var h pairHist
				for sym, cnt := range counts {
					if cnt > 0 {
						h = append(h, struct{ sym, n uint32 }{uint32(sym), cnt})
					}
				}
				corpus = append(corpus, h)
			}
		}
	}
	const w, h = 640, 360
	var prev []byte
	for _, pix := range gameFrames(w, h, 30) {
		for ti := 0; ti < tileCount(h, DefaultTileRows); ti++ {
			s, e := tileRange(w, h, DefaultTileRows, ti)
			var ref []byte
			if prev != nil {
				ref = prev[s:e]
			}
			add(pix[s:e], ref, 4*w)
		}
		prev = pix
	}
	contentTiles(func(kind string, w int, shift uint, tile, ref []byte) { add(tile, ref, 4*w) })
	return corpus
}

// histCost is what table lens spends on h, in bits.
func histCost(h pairHist, lens *[pairSyms]uint8) uint32 {
	var bits uint32
	for _, e := range h {
		bits += e.n * uint32(lens[e.sym])
	}
	return bits
}

// limitedLengths returns the optimal code lengths of at most limit bits for
// the weights w (all positive), by package-merge: integer arithmetic only,
// ties broken by pair index, so the result is a complete prefix code and
// the same on every host.
func limitedLengths(w *[pairSyms]uint64, limit int) (lens [pairSyms]uint8) {
	type item struct {
		w    uint64
		uses [pairSyms]uint8 // how often each pair is inside the item
	}
	leaves := make([]item, pairSyms)
	for i := range leaves {
		leaves[i].w = w[i]
		leaves[i].uses[i] = 1
	}
	sort.SliceStable(leaves, func(x, y int) bool { return leaves[x].w < leaves[y].w })
	list := leaves
	for level := 1; level < limit; level++ {
		var merged []item
		li := 0
		for p := 0; p+1 < len(list); p += 2 {
			pkg := item{w: list[p].w + list[p+1].w}
			for i := range pkg.uses {
				pkg.uses[i] = list[p].uses[i] + list[p+1].uses[i]
			}
			for li < len(leaves) && leaves[li].w <= pkg.w {
				merged = append(merged, leaves[li])
				li++
			}
			merged = append(merged, pkg)
		}
		list = append(merged, leaves[li:]...)
	}
	for _, it := range list[:2*pairSyms-2] {
		for i, u := range it.uses {
			lens[i] += u
		}
	}
	return lens
}

// fitPairTables is the rule the committed tables come from. Seed: the
// channels sorted by their share of (0, 0) pairs, cut into unaryTable groups
// of equal size. Then, until no channel moves (at most 50 rounds): fit each
// group's table as the length-limited optimal code of the group's summed
// counts plus one per pair (every pair must have a code), and move every
// channel to the table that codes it cheapest, the unary table included,
// the lowest-numbered on a tie. Last, the tables are ordered by their code
// lengths, shortest (0, 0) code first.
func fitPairTables(corpus []pairHist) [unaryTable][pairSyms]uint8 {
	unary, _ := tableLens(unaryTable)
	type keyed struct {
		key uint64
		i   int
	}
	order := make([]keyed, len(corpus))
	for i, h := range corpus {
		var zero, total uint64
		for _, e := range h {
			total += uint64(e.n)
			if e.sym == 0 {
				zero = uint64(e.n)
			}
		}
		order[i] = keyed{zero << 16 / total, i}
	}
	sort.SliceStable(order, func(x, y int) bool { return order[x].key < order[y].key })
	assign := make([]int, len(corpus))
	for r, o := range order {
		assign[o.i] = r * unaryTable / len(order)
	}
	var tabs [pairTables][pairSyms]uint8
	tabs[unaryTable] = unary
	for round := 0; round < 50; round++ {
		var sums [unaryTable][pairSyms]uint64
		var members [unaryTable]int
		for i, h := range corpus {
			if t := assign[i]; t < unaryTable {
				members[t]++
				for _, e := range h {
					sums[t][e.sym] += uint64(e.n)
				}
			}
		}
		for t := range sums {
			if members[t] == 0 && round > 0 {
				continue // an emptied table keeps its last fit
			}
			for i := range sums[t] {
				sums[t][i]++
			}
			tabs[t] = limitedLengths(&sums[t], maxPairLen)
		}
		moved := 0
		for i, h := range corpus {
			best, bestCost := 0, histCost(h, &tabs[0])
			for t := 1; t < pairTables; t++ {
				if c := histCost(h, &tabs[t]); c < bestCost {
					best, bestCost = t, c
				}
			}
			if best != assign[i] {
				assign[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	fitted := tabs[:unaryTable]
	sort.SliceStable(fitted, func(x, y int) bool {
		return bytes.Compare(fitted[x][:], fitted[y][:]) < 0
	})
	return [unaryTable][pairSyms]uint8(fitted)
}

// TestPairTablesRegenerate re-derives the committed tables from their rule
// and checks their form: every fitted table a complete prefix code within
// the length limit, and the unary table the unary code bit for bit.
func TestPairTablesRegenerate(t *testing.T) {
	corpus := pairCorpus()
	fitted := fitPairTables(corpus)
	if *regenPairTables {
		writePairLens(t, &fitted)
	} else if fitted != pairLens {
		t.Errorf("the committed pairLens differ from the fit on %d channels; run go test -run TestPairTablesRegenerate -regen-pair-tables", len(corpus))
	}
	for tb := range pairLens {
		kraft := 0
		for i, l := range pairLens[tb] {
			if l < 1 || l > maxPairLen {
				t.Fatalf("table %d pair %d: length %d outside 1..%d", tb, i, l, maxPairLen)
			}
			kraft += 1 << (maxPairLen - l)
		}
		if kraft != 1<<maxPairLen {
			t.Errorf("table %d: Kraft sum %d/2^%d, want exactly 1 (a complete code)", tb, kraft, maxPairLen)
		}
	}
	for a := 0; a < pairTokens; a++ {
		for b := 0; b < pairTokens; b++ {
			w := &refBitWriter{}
			w.bits(0, uint(a))
			w.bits(1, 1)
			w.bits(0, uint(b))
			w.bits(1, 1)
			var want uint32
			for i, x := range w.b {
				want |= uint32(x) << (8 * i)
			}
			e := pairs.code[unaryTable][a<<4|b]
			if e&(1<<codeLenShift-1) != want || int(e>>codeLenShift) != w.n {
				t.Fatalf("unary table, pair (%d, %d): code %#x/%d bits, want %#x/%d", a, b, e&(1<<codeLenShift-1), e>>codeLenShift, want, w.n)
			}
		}
	}
	// Every code of every table decodes to its pair, whatever follows it.
	for tb := range pairs.code {
		lut := &pairs.lut[tb]
		for a := 0; a < pairTokens; a++ {
			for b := 0; b < pairTokens; b++ {
				e := pairs.code[tb][a<<4|b]
				l := e >> codeLenShift
				for _, tail := range []uint64{0, ^uint64(0)} {
					w := uint64(e&(1<<codeLenShift-1)) | tail<<l
					d := lut.prim[w&(1<<lutBits-1)]
					if d>>lutMaxShift == lutLong {
						d = lut.sec[d>>8&0xFFFF|uint32(w>>lutBits)&(1<<secBits-1)]
					}
					if firstPair(d) != l|1<<6|uint32(a)<<8|uint32(b)<<12|uint32(max(a, b))<<lutMaxShift {
						t.Fatalf("table %d pair (%d, %d): decodes to entry %#x", tb, a, b, d)
					}
				}
			}
		}
		// Two codes within lutBits decode together.
		for s1 := range 256 {
			for s2 := range 256 {
				e1, e2 := pairs.code[tb][s1], pairs.code[tb][s2]
				l1, l2 := e1>>codeLenShift, e2>>codeLenShift
				if s1&15 >= pairTokens || s2&15 >= pairTokens || s1>>4 >= pairTokens || s2>>4 >= pairTokens || l1+l2 > lutBits {
					continue
				}
				d := lut.prim[(e1&(1<<codeLenShift-1)|e2&(1<<codeLenShift-1)<<l1)&(1<<lutBits-1)]
				want := (l1 + l2) | 2<<6 | uint32(s1>>4)<<8 | uint32(s1&15)<<12 | uint32(s2>>4)<<16 | uint32(s2&15)<<20 | l1<<24 |
					uint32(max(s1>>4, s1&15, s2>>4, s2&15))<<lutMaxShift
				if d != want {
					t.Fatalf("table %d pairs %#x, %#x: entry %#x, want %#x", tb, s1, s2, d, want)
				}
			}
		}
	}
}

// writePairLens rewrites the pairLens literal in pairtables.go.
func writePairLens(t *testing.T, lens *[unaryTable][pairSyms]uint8) {
	const file = "pairtables.go"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	const head = "var pairLens = [unaryTable][pairSyms]uint8{\n"
	start := bytes.Index(src, []byte(head))
	if start < 0 {
		t.Fatal("pairLens literal not found")
	}
	end := bytes.Index(src[start:], []byte("\n}\n"))
	if end < 0 {
		t.Fatal("pairLens literal not closed")
	}
	var b strings.Builder
	b.WriteString(head)
	for _, tab := range lens {
		b.WriteString("{")
		for i, l := range tab {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprint(&b, l)
		}
		b.WriteString("},\n")
	}
	out := append(append(append([]byte(nil), src[:start]...), b.String()...), src[start+end+1:]...)
	if out, err = format.Source(out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", file)
}
