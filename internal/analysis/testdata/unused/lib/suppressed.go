package lib

// Reserved has no caller yet; an open work item will call it.
//
//dspslint:ignore unused the planned replay tool calls it
func Reserved() int { return 8 }
