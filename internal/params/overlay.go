// Profile overlays: RFC 7386 JSON merge patches against a base Set. A
// profile file states only what it changes — objects merge recursively
// (per-location grid entries, per-node tech rows), scalars and arrays
// replace, and null deletes a key. Unknown fields anywhere in the patch are
// structured errors, so a typoed parameter name cannot silently fall back
// to the baseline value.
package params

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// mergePatch applies RFC 7386 semantics: if patch is a JSON object, merge
// it key-by-key into target (null values delete); anything else replaces
// target wholesale.
func mergePatch(target, patch any) any {
	p, ok := patch.(map[string]any)
	if !ok {
		return patch
	}
	t, ok := target.(map[string]any)
	if !ok {
		t = make(map[string]any, len(p))
	}
	for k, v := range p {
		if v == nil {
			delete(t, k)
			continue
		}
		t[k] = mergePatch(t[k], v)
	}
	return t
}

// decodeStrict parses one JSON value, rejecting trailing garbage.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // preserve number text through the merge round-trip
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Only whitespace may follow the value. (dec.More reports a stray
	// closing delimiter as "no more", so it would let "{}}" through.)
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// Overlay applies a JSON merge patch to base and returns the validated
// result. The base is not modified. Patch field names are checked against
// the Set schema (unknown fields are errors), and the merged set must pass
// full validation — NaN, negative and absurd values are structured errors,
// never accepted or panics.
func Overlay(base *Set, patch []byte) (*Set, error) {
	if base == nil {
		return nil, fmt.Errorf("params: overlay on nil base")
	}
	var patchVal any
	if err := decodeStrict(patch, &patchVal); err != nil {
		return nil, fmt.Errorf("params: overlay is not valid JSON: %w", err)
	}
	if _, ok := patchVal.(map[string]any); !ok {
		return nil, fmt.Errorf("params: overlay must be a JSON object")
	}

	baseJSON, err := json.Marshal(base)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	var baseVal any
	if err := decodeStrict(baseJSON, &baseVal); err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}

	merged := mergePatch(baseVal, patchVal)
	mergedJSON, err := json.Marshal(merged)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}

	out := &Set{}
	dec := json.NewDecoder(bytes.NewReader(mergedJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return nil, fmt.Errorf("params: overlay does not match the parameter schema: %w", err)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Parse decodes a full profile document as an overlay on the baseline
// Default() set and returns the validated result.
func Parse(data []byte) (*Set, error) { return Overlay(Default(), data) }

// Load reads a profile file and resolves it against the baseline Default()
// set. The file may be a sparse overlay (just the overridden subtrees) or a
// complete serialized Set.
func Load(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("params: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("params: %s: %w", path, err)
	}
	return s, nil
}
