// Package-level tests exercising the public facade exactly the way a
// downstream user would; example_test.go covers the rest of it.
package lmas_test

import (
	"testing"

	"lmas"
)

func TestFacadeAdaptiveAlpha(t *testing.T) {
	params := lmas.DefaultParams()
	params.ASUs = 64
	a := lmas.ChooseAlpha(params, []int{1, 16, 256}, 64)
	params.ASUs = 2
	b := lmas.ChooseAlpha(params, []int{1, 16, 256}, 64)
	if a < b {
		t.Fatalf("adaptive alpha shrank with more ASUs: %d vs %d", a, b)
	}
}

func TestFacadeOnePass(t *testing.T) {
	params := lmas.DefaultParams()
	params.Hosts, params.ASUs = 2, 4
	params.HostMemRecords = 4096
	cl := lmas.NewCluster(params)
	in := lmas.MakeInput(cl, 3000, lmas.Exponential{Mean: 0.1}, 7, 32)
	res, err := lmas.OnePassSort(cl, lmas.OnePassConfig{SampleSize: 1024, PacketRecords: 32, Seed: 7}, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}
