package lib

// Config is a knob struct: an exported field is live only when code
// outside this package writes it.
type Config struct {
	Dead      int    // want: unused (written by nothing, read by user)
	OwnTest   int    // want: unused (written only by this package's test)
	Defaulted int    // want: unused (written only by this package's defaults)
	Live      int    // keyed in another package's non-test literal
	Shared    int    // keyed in another package's test
	Assigned  int    // assigned through cfg.Assigned = … in another package
	Pointed   int    // written through &cfg.Pointed in another package
	Benched   int    // keyed only in a file the loader never loads
	Nested    Limits // written through cfg.Nested.Max = … in another package
	Slots     [2]int // written through cfg.Slots[i] = … in another package
	hidden    int    // unexported: not a knob
}

// Limits is a nested value; its name makes it no knob struct.
type Limits struct{ Max int }

// RunOptions is written positionally by another package, which sets
// every field.
type RunOptions struct {
	Depth int
	Width int
}

// withDefaults is this package's own write, which keeps nothing live.
func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 4
	}
	c.hidden = c.Dead
	return c
}

// Apply reads every knob.
func Apply(c Config, o RunOptions) int {
	c = c.withDefaults()
	return c.Dead + c.OwnTest + c.Defaulted + c.Live + c.Shared + c.Assigned +
		c.Pointed + c.Benched + c.Nested.Max + c.Slots[1] + c.hidden + o.Depth + o.Width
}
