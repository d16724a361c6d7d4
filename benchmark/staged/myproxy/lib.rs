// The sources are copied into OUT_DIR by ../stage.rs, which says why.
include!(concat!(env!("OUT_DIR"), "/src/lib.rs"));
