package delta

import (
	"crypto/subtle"
	"fmt"

	"almanac/internal/lzf"
)

// decodeRef is the two-pass decoder DecodeOnto replaced (it was
// DecodeAppend), kept frozen as the reference DecodeOnto's accept/reject
// result, error text and output are checked against
// (FuzzDecodeOntoMatchesTwoPass): decompress the whole residual, appended
// to dst, then XOR the reference onto it. ref must be the page content
// whose write timestamp equals the delta's RefTS when enc is EncXORLZF; it
// is ignored otherwise. Do not optimise it.
func decodeRef(dst []byte, enc Encoding, payload, ref []byte, pageSize int) ([]byte, error) {
	base := len(dst)
	switch enc {
	case EncRaw:
		if len(payload) != pageSize {
			return nil, fmt.Errorf("delta: raw payload is %d bytes, want %d", len(payload), pageSize)
		}
		return append(dst, payload...), nil
	case EncRawLZF, EncXORLZF:
		if enc == EncXORLZF && len(ref) != pageSize {
			return nil, fmt.Errorf("delta: reference is %d bytes, want %d", len(ref), pageSize)
		}
		out, err := lzf.Decompress(dst, payload, pageSize)
		if err != nil {
			return nil, err
		}
		if len(out)-base != pageSize {
			return nil, fmt.Errorf("delta: decoded %d bytes, want %d", len(out)-base, pageSize)
		}
		if enc == EncXORLZF {
			body := out[base:]
			subtle.XORBytes(body, body, ref) // exact aliasing is allowed
		}
		return out, nil
	default:
		return nil, fmt.Errorf("delta: unknown encoding %d", enc)
	}
}

// decodeOnto is the tests' DecodeOnto call in decodeRef's shape: a fresh
// page holding ref (for EncXORLZF), decoded onto through s.
func decodeOnto(enc Encoding, payload, ref []byte, pageSize int, s *Scratch) ([]byte, error) {
	page := make([]byte, pageSize)
	if enc == EncXORLZF {
		copy(page, ref)
	}
	if err := DecodeOnto(page, enc, payload, s); err != nil {
		return nil, err
	}
	return page, nil
}
