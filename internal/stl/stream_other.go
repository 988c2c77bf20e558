//go:build !amd64

package stl

// Without amd64 there is no store kernel: streamCopy copies, and there is
// nothing for storeFence to order.

func streamCopyAVX2([]byte, []byte) { panic("stl: no store kernel") }

func storeFence() {}
