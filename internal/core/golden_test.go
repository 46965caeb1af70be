package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/poibin"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestPaperScaleMushroomGolden pins a paper-scale mine byte for byte: the
// 8,124-row Mushroom-like dataset at relative min_sup .3 and pfct .8, with
// every tail on the convolution tree (tails of up to 512 tuples are one DP
// leaf) and ApproxFCP for every union. Any change to the convolution
// kernel's rounded arithmetic moves a probability or a counter here, so a
// kernel rewrite cannot change bits silently. The golden file was recorded
// before the live-window merge; regenerate it (only for an intended result
// change) with
//
//	go test ./internal/core -run TestPaperScaleMushroomGolden -update
func TestPaperScaleMushroomGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale mine")
	}
	db := gen.AssignGaussian(gen.MushroomLike(1, 2), 0.5, 0.5, 4)
	res, err := Mine(db, Options{
		MinSup:          AbsoluteMinSup(db.N(), 0.3),
		PFCT:            0.8,
		Epsilon:         0.1,
		Delta:           0.1,
		Seed:            1,
		MaxExactClauses: -1,
		TailKernel:      poibin.KernelConv,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res.JSON(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	const path = "testdata/mushroom_paper_conv.golden.json"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paper-scale Mushroom result drifted from %s (%d itemsets, stats %+v)",
			path, len(res.Itemsets), res.Stats)
	}
}
