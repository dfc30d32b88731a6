package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeJobConfig throws arbitrary bytes at the submission
// decoder. Properties:
//
//   - never panics, whatever the input (the decoder is the service's
//     front door);
//   - a rejected input yields a *core.ConfigError with a non-empty
//     stable code (the HTTP layer serializes it blindly);
//   - an accepted config round-trips: marshalled (core.RunConfig is
//     its own wire form) and decoded again, it produces the identical
//     content-address key — the job ID, the dedup identity, and the
//     cache address all survive a wire round trip.
//
// Seed corpus lives in testdata/fuzz/FuzzDecodeJobConfig.
func FuzzDecodeJobConfig(f *testing.F) {
	f.Add([]byte(`{"experiment": "fig3"}`))
	f.Add([]byte(`{"experiment": "nautilus", "cpus": 64, "seed": 7}`))
	f.Add([]byte(`{"experiment": "fig7", "sweep": true, "ablate": true, "small_axes": true}`))
	f.Add([]byte(`{"experiment": "fig3", "chaos_seed": 5, "chaos": {"alloc_fail_prob": 0.5, "ipi_drop_prob": 0.1, "max_steps": 1000}}`))
	f.Add([]byte(`{"experiment": "fig99"}`))
	f.Add([]byte(`{"experiment": "carat", "cpus": -1}`))
	f.Add([]byte(`{"experiment": "fig3", "chaos": {"ipi_drop_prob": 2}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"experiment": "fig3"} garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeJobConfig(bytes.NewReader(data))
		if err != nil {
			var cerr *core.ConfigError
			if !errors.As(err, &cerr) {
				t.Fatalf("rejection is not a ConfigError: %v", err)
			}
			if cerr.Code == "" || cerr.Msg == "" {
				t.Fatalf("rejection without code/msg: %+v", cerr)
			}
			return
		}
		key := cfg.Key()
		id := JobID(key)
		if len(id) != 16 {
			t.Fatalf("job ID %q not a 16-hex-digit key prefix", id)
		}

		// Canonical wire round trip preserves the key exactly.
		wire, merr := json.Marshal(cfg)
		if merr != nil {
			t.Fatalf("marshal canonical wire form: %v", merr)
		}
		cfg2, err2 := DecodeJobConfig(bytes.NewReader(wire))
		if err2 != nil {
			t.Fatalf("canonical wire form rejected: %v\n%s", err2, wire)
		}
		if cfg2.Key() != key {
			t.Fatalf("key changed across wire round trip:\n in: %s\nout: %s\nwire: %s",
				key, cfg2.Key(), wire)
		}
	})
}
