"""The FAIL language front end (lexer, parser, AST, checks, printer)."""
