package lib

// Reserved has no caller yet; an open work item will call it.
//
//dspslint:ignore unused the planned replay tool calls it
func Reserved() int { return 8 }

// Planned is a method the same work item will call.
//
//dspslint:ignore unused the planned replay tool calls it too
func (T) Planned() int { return 12 }

// ReplayOptions configures the planned replay tool.
type ReplayOptions struct {
	//dspslint:ignore unused the planned replay tool sets it
	Speed int
}
