package floorplan

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// placeHash folds the float bits of every Placement field into one FNV-1a
// hash, so any change to the annealer's answer — a different move
// sequence, acceptance draw or cost rounding — changes the hash.
func placeHash(p *Placement) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, s := range [][]float64{p.X, p.Y, p.W, p.H} {
		for _, f := range s {
			put(f)
		}
	}
	put(p.ChipW)
	put(p.ChipH)
	put(p.AreaCost)
	put(p.WireCost)
	return h.Sum64()
}

// goldenBlocks returns a seeded block set: hard blocks with a fixed
// footprint and soft ones with random aspect bounds (zero bounds take the
// 0.5/2 defaults), plus a random net list with some single-pin and
// multi-pin nets. hardShare 1 gives a set with no soft blocks.
func goldenBlocks(seed int64, n int, hardShare float64) ([]Block, []Net) {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]Block, n)
	for i := range blocks {
		area := 500 + rng.Float64()*9500
		if rng.Float64() < hardShare {
			w := math.Sqrt(area) * (0.6 + rng.Float64()*0.8)
			blocks[i] = Block{Name: "h", Hard: true, W: w, H: area / w, Area: area}
			continue
		}
		blocks[i] = Block{Name: "s", Area: area}
		if rng.Intn(2) == 0 {
			blocks[i].MinAspect = 0.3 + rng.Float64()*0.5
			blocks[i].MaxAspect = 1.2 + rng.Float64()*2
		}
	}
	var nets []Net
	for k := 0; k < 2*n; k++ {
		net := Net{rng.Intn(n)}
		for j := rng.Intn(4); j > 0; j-- {
			net = append(net, rng.Intn(n))
		}
		nets = append(nets, net)
	}
	return blocks, nets
}

// TestPlaceGolden pins Place's answers bit for bit. The hashes were
// computed before the annealer's inner loop was rewritten to reuse its
// buffers; a rewrite that changes any placement, chip outline or cost
// component fails here.
func TestPlaceGolden(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		n         int
		hardShare float64
		opt       Options
		want      uint64
	}{
		{"mixed", 1, 8, 0.3, Options{Seed: 11, Moves: 4000}, 0x1964f9e6b46f7287},
		{"mixed-channel", 2, 12, 0.25, Options{Seed: 12, Moves: 4000, Channel: 7.5, WireWeight: 0.3}, 0x84fc828c9cb7492c},
		{"soft-only", 3, 10, 0, Options{Seed: 13, Moves: 4000, Whitespace: 0.2}, 0x71694e669156c06d},
		{"hard-only", 4, 9, 1, Options{Seed: 14, Moves: 4000, Channel: 3}, 0x11ce2c9b8d21147e},
		{"default-moves", 5, 16, 0.2, Options{Seed: 15, Channel: 4}, 0x4fbc8c03cb4bb979},
	}
	for _, c := range cases {
		blocks, nets := goldenBlocks(c.seed, c.n, c.hardShare)
		pl, err := Place(blocks, nets, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := placeHash(pl); got != c.want {
			t.Errorf("%s: placement hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
