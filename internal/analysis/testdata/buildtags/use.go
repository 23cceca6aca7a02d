package corpus

// Platform keeps platform in use.
func Platform() bool { return platform() }
