// Package crypt provides the block-based page encryption of §5.3.3. Modern
// datacenter SSD controllers carry inline AES engines that encrypt each
// basic access unit with a size-preserving transformation; NDS composes with
// them unchanged because building blocks never alter data content at grains
// finer than the cipher section (256 bits). This package implements such an
// engine: AES-CTR keyed per device, with a nonce derived from the physical
// page address, so relocation (GC) re-seals data under its new location
// automatically.
package crypt

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"nds/internal/nvm"
)

// SectionBytes is the cipher section: AES's 256-bit granule (§5.3.3 uses a
// 256-bit section storing eight 4-byte elements).
const SectionBytes = 32

// Engine seals and opens page payloads. It satisfies nvm.PageCipher.
type Engine struct {
	block cipher.Block
}

// New derives an engine from a device key (any length; hashed to 256 bits).
func New(key []byte) (*Engine, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("crypt: empty key")
	}
	sum := sha256.Sum256(key)
	b, err := aes.NewCipher(sum[:])
	if err != nil {
		return nil, err
	}
	return &Engine{block: b}, nil
}

// iv derives the CTR nonce from the physical page address, so each unit has
// a unique keystream and relocated data is re-sealed at its new address.
func (e *Engine) iv(p nvm.PPA) []byte {
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint32(iv[0:], uint32(p.Channel))
	binary.LittleEndian.PutUint32(iv[4:], uint32(p.Bank))
	binary.LittleEndian.PutUint32(iv[8:], uint32(p.Block))
	binary.LittleEndian.PutUint32(iv[12:], uint32(p.Page))
	return iv[:]
}

// Seal encrypts plain for storage at p into dst[:len(plain)]: the
// transformation is size-preserving, as §5.3.3 requires, and works in place
// when dst is plain.
func (e *Engine) Seal(p nvm.PPA, dst, plain []byte) {
	cipher.NewCTR(e.block, e.iv(p)).XORKeyStream(dst, plain)
}

// Open decrypts sealed read from p into a fresh buffer.
func (e *Engine) Open(p nvm.PPA, sealed []byte) []byte {
	// CTR is symmetric.
	out := make([]byte, len(sealed))
	e.Seal(p, out, sealed)
	return out
}

// CompatibleWithBlocks checks §5.3.3's constraint: the data size in each
// blocked dimension of a building block must be at least the cipher
// section, so sections never straddle block fragments.
func CompatibleWithBlocks(blockDims []int64, elemSize int) bool {
	for _, d := range blockDims {
		if d == 1 {
			continue // unblocked dimension
		}
		if d*int64(elemSize) < SectionBytes {
			return false
		}
	}
	return true
}
