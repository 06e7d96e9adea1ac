"""Fixture tests of tools/unused_pub.py's matching rule.

    python3 -m unittest tools/test_unused_pub.py
"""

import pathlib
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import unused_pub  # noqa: E402


class MatchingRule(unittest.TestCase):
    def scan(self, files):
        """`unused_pub.unused` over a workspace made of `files` (path -> source)."""
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            for rel, text in files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(textwrap.dedent(text))
            found, std_only = unused_pub.unused(root)
        return [item for item, _, _ in found], [item for item, _, _ in std_only]

    TWO_SAME_NAMED = {
        "crates/a/src/x.rs": """
            pub struct X;
            impl X {
                pub fn with_retry(self) -> Self { self }
            }
        """,
        "crates/a/src/y.rs": """
            pub struct Y;
            impl Y {
                pub fn with_retry(self) -> Self { self }
            }
            pub fn make() -> (X, Y) { (X, Y) }
        """,
        "src/main.rs": """
            fn main() { let _ = a::y::make(); }
        """,
    }

    def test_same_named_declarations_do_not_vouch_for_each_other(self):
        found, _ = self.scan(self.TWO_SAME_NAMED)
        self.assertEqual(found, ["a::x::with_retry", "a::y::with_retry"])

    def test_a_real_caller_clears_both(self):
        files = dict(self.TWO_SAME_NAMED)
        files["src/main.rs"] = """
            fn main() { let (_, y) = a::y::make(); let _ = y.with_retry(); }
        """
        found, std_only = self.scan(files)
        self.assertEqual(found, [])
        self.assertEqual(std_only, [])

    def test_a_name_only_a_std_method_matches_is_reported_apart(self):
        files = {
            "crates/a/src/lib.rs": """
                pub struct S;
                impl S {
                    pub fn reduce(&self, v: &[i32]) -> i32 { v.iter().sum() }
                }
                pub fn total(v: &[i32]) -> Option<i32> {
                    v.iter().copied().reduce(|a, b| a + b)
                }
            """,
            "src/main.rs": """
                fn main() { let _ = a::total(&[1]); }
            """,
        }
        found, std_only = self.scan(files)
        self.assertEqual(found, [])
        self.assertEqual(std_only, ["a::lib::reduce"])
        # A path call is not a std method's: the item is not reported.
        files["src/main.rs"] = """
            fn main() { let _ = a::total(&[1]); let _ = a::S::reduce(&a::S, &[1]); }
        """
        self.assertEqual(self.scan(files), ([], []))


if __name__ == "__main__":
    unittest.main()
