// Fixture: public functions and their callers. `only_tested` is called
// only from this file's test module and `only_reexported` only appears
// in a `pub use`: both fire. `called` has a non-test caller and stays
// quiet, as does the private `caller`.
pub fn only_tested() -> u32 {
    1
}

pub fn only_reexported() -> u32 {
    2
}

pub fn called() -> u32 {
    3
}

fn caller() -> u32 {
    called() + 1 // `only_tested` in a comment is not a reference
}

pub use self::only_reexported as again;

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 1);
        let _ = "only_reexported"; // nor is a string
    }
}
