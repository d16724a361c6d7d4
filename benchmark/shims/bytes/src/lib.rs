//! Stand-in for `bytes`: the ig-* crates list the dependency but use no item of it.
