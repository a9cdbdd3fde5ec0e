"""The surfspline benchmark; see README.md."""
