package pipelines

import (
	"testing"

	"repro/internal/dataflow"
	"repro/streamline"
)

// TestPipelineFingerprintsGolden pins the lowered plan of every demo
// pipeline, with the default optimizer settings and with stage fusion and
// the combiner off. Coordinator and workers of a distributed run verify
// these fingerprints against each other, so a change in how the typed API
// lowers onto the job graph (node names, parallelism, edges, pinning) shows
// up here before it shows up as a worker refusing a plan.
func TestPipelineFingerprintsGolden(t *testing.T) {
	plain := []streamline.Option{streamline.WithStageFusion(false), streamline.WithCombiner(streamline.CombinerOff)}
	for _, c := range []struct {
		name        string
		opts        []streamline.Option
		fingerprint string
	}{
		{"wordcount", nil, "b4b517b8287a85e9603a98446d862e99d55b413f5e73c8a005d79ffc2f47372e"},
		{"wordcount", plain, "c4607ae5f6834b277919163e1cc5e0f299eb1779dfec7ebd5c5e6cd64073e9d9"},
		{"windowed", nil, "4e1b49bc3b194cafcf90f9142afb7689478cbb1e4f2f56f24af84d3f7753c320"},
		{"windowed", plain, "4e1b49bc3b194cafcf90f9142afb7689478cbb1e4f2f56f24af84d3f7753c320"},
		{"fused", nil, "15c44eda428798a3f315ec64f837f4b3d9c39687840fe4ec24e1050f68706499"},
		{"fused", plain, "dfb9c61533f4ae4aac698ea205a4525cead8813495f3ac4fa2403108ceb3dbe6"},
		{"joined", nil, "f43ec1800f5467dab6309e210b53a253fa85c89c73af32953d574cf4f6460c39"},
		{"joined", plain, "f43ec1800f5467dab6309e210b53a253fa85c89c73af32953d574cf4f6460c39"},
	} {
		env, _, err := Build(c.name, nil, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := dataflow.SpecOf(env.Graph(), env.Chaining()).Fingerprint(); got != c.fingerprint {
			t.Errorf("%s (%d extra options): fingerprint %s, want %s", c.name, len(c.opts), got, c.fingerprint)
		}
	}
}
