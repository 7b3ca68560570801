//! The unified error type of `regtree-core`.
//!
//! Each subsystem keeps its precise error enum ([`FdError`],
//! [`UpdateClassError`], [`ApplyError`], [`PathFdError`]); this module adds
//! the umbrella [`Error`] that `?` can funnel them all into, so application
//! code (the CLI, services embedding the [`crate::Analyzer`]) handles one
//! type. The wrapped error stays reachable through
//! [`std::error::Error::source`] and the variant payload.

use std::fmt;

use regtree_hedge::ValidationError;
use regtree_pattern::lang::ParseError;
use regtree_pattern::{PatternError, TemplateError};

use crate::fd::FdError;
use crate::pathfd::PathFdError;
use crate::update::{ApplyError, UpdateClassError};

/// Any error raised by `regtree-core` construction or update application.
///
/// Marked `#[non_exhaustive]`: future subsystems may add variants without a
/// breaking release, so matches need a wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Constructing a functional dependency failed.
    Fd(FdError),
    /// Constructing an update class failed.
    UpdateClass(UpdateClassError),
    /// Applying a concrete update failed.
    Apply(ApplyError),
    /// Translating a textual FD failed ([`crate::parse_fd`]: duplicate
    /// paths, value tests).
    PathFd(PathFdError),
    /// Parsing textual pattern-language input failed
    /// ([`crate::parse_fd`]); carries the byte offset and expected set.
    PatternText(ParseError),
    /// Building a pattern template failed (bad edge expression).
    Template(TemplateError),
    /// Assembling a regular tree pattern failed (bad selected tuple).
    Pattern(PatternError),
    /// A schema-requiring entry point ([`crate::Analyzer::validate`]) was
    /// called on an [`crate::Analyzer`] built without a schema.
    NoSchema,
    /// A document failed schema validation.
    Validation(ValidationError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Fd(e) => write!(f, "functional dependency: {e}"),
            Error::UpdateClass(e) => write!(f, "update class: {e}"),
            Error::Apply(e) => write!(f, "update application: {e}"),
            Error::PathFd(e) => write!(f, "path FD: {e}"),
            Error::PatternText(e) => write!(f, "{e}"),
            Error::Template(e) => write!(f, "template: {e}"),
            Error::Pattern(e) => write!(f, "pattern: {e}"),
            Error::NoSchema => write!(f, "analyzer was built without a schema"),
            Error::Validation(e) => write!(f, "schema validation: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Fd(e) => Some(e),
            Error::UpdateClass(e) => Some(e),
            Error::Apply(e) => Some(e),
            Error::PathFd(e) => Some(e),
            Error::PatternText(e) => Some(e),
            Error::Template(e) => Some(e),
            Error::Pattern(e) => Some(e),
            Error::NoSchema => None,
            Error::Validation(e) => Some(e),
        }
    }
}

impl From<ValidationError> for Error {
    fn from(e: ValidationError) -> Error {
        Error::Validation(e)
    }
}

impl From<FdError> for Error {
    fn from(e: FdError) -> Error {
        Error::Fd(e)
    }
}

impl From<UpdateClassError> for Error {
    fn from(e: UpdateClassError) -> Error {
        Error::UpdateClass(e)
    }
}

impl From<ApplyError> for Error {
    fn from(e: ApplyError) -> Error {
        Error::Apply(e)
    }
}

impl From<PathFdError> for Error {
    fn from(e: PathFdError) -> Error {
        Error::PathFd(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::PatternText(e)
    }
}

impl From<TemplateError> for Error {
    fn from(e: TemplateError) -> Error {
        Error::Template(e)
    }
}

impl From<PatternError> for Error {
    fn from(e: PatternError) -> Error {
        Error::Pattern(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_are_preserved() {
        use std::error::Error as _;
        let e: Error = FdError::NoTarget.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("functional dependency"));
        let e: Error = PathFdError {
            message: "bad".into(),
        }
        .into();
        assert!(e.to_string().contains("bad"));
        assert!(e.source().unwrap().to_string().contains("bad"));
    }

    #[test]
    fn question_mark_funnels_subsystem_errors() {
        fn build() -> Result<(), Error> {
            let failed: Result<(), FdError> = Err(FdError::NoTarget);
            failed?;
            Ok(())
        }
        assert!(matches!(build(), Err(Error::Fd(FdError::NoTarget))));
    }
}
