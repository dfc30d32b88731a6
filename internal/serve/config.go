package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
)

// maxBodyBytes caps request bodies. A job config is a few hundred
// bytes; a batch of them is a few KiB. 1 MiB is generous headroom, not
// a knob.
const maxBodyBytes = 1 << 20

// WireConfig returns cfg unchanged: core.RunConfig is its own wire form.
//
// Deprecated: marshal the core.RunConfig directly. The function remains
// only because the frozen benchmark harness (perfbench/serve.go) still
// calls it; delete it with the next change allowed to touch perfbench/.
func WireConfig(cfg core.RunConfig) core.RunConfig { return cfg }

// decodeStrict decodes exactly one JSON document from r into v:
// unknown fields, wrong types, and trailing data all fail.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second document after the first is a malformed request, not
	// ignorable padding.
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// DecodeJobConfig reads one job config from r (strict: unknown fields,
// wrong types and trailing garbage are bad_json) on top of the
// registry defaults, and validates it. The returned error is always a
// *core.ConfigError, so its Code goes straight into the JSON error body.
func DecodeJobConfig(r io.Reader) (core.RunConfig, error) {
	cfg := core.DefaultRunConfig("")
	if err := decodeStrict(r, &cfg); err != nil {
		return core.RunConfig{}, &core.ConfigError{
			Code: CodeBadJSON, Msg: fmt.Sprintf("bad job config: %v", err)}
	}
	if err := cfg.Validate(); err != nil {
		var cerr *core.ConfigError
		if errors.As(err, &cerr) {
			return core.RunConfig{}, cerr
		}
		return core.RunConfig{}, &core.ConfigError{Code: CodeInternal, Msg: err.Error()}
	}
	return cfg, nil
}

// JobID derives the job identifier from a config's content-address
// key (core.RunConfig.Key): its first 16 hex digits (64 bits). The ID
// is therefore a cache-key prefix — equal IDs mean equal configs mean
// byte-identical results, which is what makes job-level deduplication
// sound.
func JobID(key cache.Key) string {
	return key.String()[:16]
}
