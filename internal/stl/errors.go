package stl

import "errors"

// Sentinel errors classifying every failure the STL can report to a host.
// Call sites wrap them with fmt.Errorf("...: %w", Err...) so callers branch
// with errors.Is instead of matching error text; the wire layer (package nds)
// maps each sentinel onto a completion status.
var (
	// ErrUnknownSpace: the named space does not exist (never created, or
	// already deleted).
	ErrUnknownSpace = errors.New("unknown space")
	// ErrCapacity: the device cannot supply the storage the operation needs
	// (logical capacity budget exhausted, or no die has a free unit).
	ErrCapacity = errors.New("capacity exhausted")
	// ErrBounds: a coordinate addresses a partition outside the view.
	ErrBounds = errors.New("out of bounds")
	// ErrInvalid: a malformed argument — non-positive dimension, mismatched
	// rank or volume, unsupported block order, or a payload whose size does
	// not match the partition.
	ErrInvalid = errors.New("invalid argument")
	// ErrMedia: the flash medium failed beyond what the STL's recovery
	// machinery could absorb — program retries exhausted, or no unit could be
	// found to relocate data away from a failing block. The affected write did
	// not land; previously written data is unaffected.
	ErrMedia = errors.New("unrecoverable media error")
	// ErrClosedView: the view is closed, or its space was resized or deleted
	// after the view was opened. Package nds re-exports it.
	ErrClosedView = errors.New("closed space view")
)
