package scenario

// Clone exposes the registry's deep copy to the external tests.
var Clone = Scenario.clone
