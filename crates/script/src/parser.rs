//! The recursive-descent / Pratt parser for the ECMAScript subset.

use std::rc::Rc;

use crate::ast::{AssignOp, BinOp, Expr, LogicalOp, MemberKey, Stmt, UnOp, UpdateOp};
use crate::error::ScriptError;
use crate::lexer::{tokenize, Tok};

/// The deepest nesting of statements and expressions the parser accepts.
/// Every nested statement, assignment-level expression and prefix operator
/// takes one level. The parser recurses through about a dozen frames per
/// level, so the bound keeps
/// a hostile script (say, 100K nested `(`) from overflowing the stack of the
/// session that loads it. A debug build spends about 13 KiB of stack per
/// level, so 64 levels fit a 2 MiB thread stack; the repository's page
/// scripts nest at most 6.
pub const MAX_NESTING_DEPTH: usize = 64;

/// Parses a complete program into a list of statements.
///
/// # Errors
///
/// Returns [`ScriptError::Lex`] or [`ScriptError::Parse`] for malformed input,
/// and [`ScriptError::NestingTooDeep`] past [`MAX_NESTING_DEPTH`].
pub fn parse_program(source: &str) -> Result<Vec<Stmt>, ScriptError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut statements = Vec::new();
    while !parser.check(&Tok::Eof) {
        statements.push(parser.statement()?);
    }
    Ok(statements)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_NESTING_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        self.tokens.get(self.pos).unwrap_or(&Tok::Eof)
    }

    fn peek_ahead(&self, offset: usize) -> &Tok {
        self.tokens.get(self.pos + offset).unwrap_or(&Tok::Eof)
    }

    fn advance(&mut self) -> Tok {
        let token = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn check(&self, expected: &Tok) -> bool {
        self.peek() == expected
    }

    fn eat(&mut self, expected: &Tok) -> bool {
        if self.check(expected) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: &Tok, context: &str) -> Result<(), ScriptError> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {expected:?} {context}, found {:?}",
                self.peek()
            )))
        }
    }

    fn error(&self, message: String) -> ScriptError {
        ScriptError::Parse {
            message,
            position: self.pos,
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past
    /// [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ScriptError>,
    ) -> Result<T, ScriptError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(ScriptError::NestingTooDeep {
                limit: MAX_NESTING_DEPTH,
                position: self.pos,
            });
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn ident(&mut self, context: &str) -> Result<String, ScriptError> {
        match self.advance() {
            Tok::Ident(name) => Ok(name),
            other => Err(self.error(format!("expected identifier {context}, found {other:?}"))),
        }
    }

    // -------------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Stmt, ScriptError> {
        self.nested(Self::statement_body)
    }

    fn statement_body(&mut self) -> Result<Stmt, ScriptError> {
        match self.peek().clone() {
            Tok::Semi => {
                self.advance();
                Ok(Stmt::Empty)
            }
            Tok::Var | Tok::Let | Tok::Const => {
                self.advance();
                let stmt = self.var_declaration()?;
                self.eat(&Tok::Semi);
                Ok(stmt)
            }
            Tok::Function => {
                self.advance();
                let name = self.ident("after `function`")?;
                let (params, body) = self.function_rest()?;
                Ok(Stmt::FunctionDecl { name, params, body })
            }
            Tok::Return => {
                self.advance();
                if self.eat(&Tok::Semi) || self.check(&Tok::RBrace) || self.check(&Tok::Eof) {
                    return Ok(Stmt::Return(None));
                }
                let value = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Return(Some(value)))
            }
            Tok::If => {
                self.advance();
                self.expect(&Tok::LParen, "after `if`")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "after if condition")?;
                let then = self.block_or_single()?;
                let otherwise = if self.eat(&Tok::Else) {
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    otherwise,
                })
            }
            Tok::While => {
                self.advance();
                self.expect(&Tok::LParen, "after `while`")?;
                let cond = self.expression()?;
                self.expect(&Tok::RParen, "after while condition")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::For => {
                self.advance();
                self.expect(&Tok::LParen, "after `for`")?;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else {
                    let stmt = if matches!(self.peek(), Tok::Var | Tok::Let | Tok::Const) {
                        self.advance();
                        self.var_declaration()?
                    } else {
                        Stmt::Expr(self.expression()?)
                    };
                    self.expect(&Tok::Semi, "after for-loop initializer")?;
                    Some(Box::new(stmt))
                };
                let cond = if self.check(&Tok::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Tok::Semi, "after for-loop condition")?;
                let update = if self.check(&Tok::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Tok::RParen, "after for-loop clauses")?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                })
            }
            Tok::Break => {
                self.advance();
                self.eat(&Tok::Semi);
                Ok(Stmt::Break)
            }
            Tok::Continue => {
                self.advance();
                self.eat(&Tok::Semi);
                Ok(Stmt::Continue)
            }
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => {
                let expr = self.expression()?;
                self.eat(&Tok::Semi);
                Ok(Stmt::Expr(expr))
            }
        }
    }

    fn var_declaration(&mut self) -> Result<Stmt, ScriptError> {
        let name = self.ident("in variable declaration")?;
        let init = if self.eat(&Tok::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        Ok(Stmt::VarDecl { name, init })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(&Tok::LBrace, "to open a block")?;
        let mut statements = Vec::new();
        while !self.check(&Tok::RBrace) && !self.check(&Tok::Eof) {
            statements.push(self.statement()?);
        }
        self.expect(&Tok::RBrace, "to close a block")?;
        Ok(statements)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        if self.check(&Tok::LBrace) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn function_rest(&mut self) -> Result<(Vec<String>, Rc<Vec<Stmt>>), ScriptError> {
        self.expect(&Tok::LParen, "to open the parameter list")?;
        let mut params = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                params.push(self.ident("in parameter list")?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "to close the parameter list")?;
        let body = self.block()?;
        Ok((params, Rc::new(body)))
    }

    // -------------------------------------------------------------- expressions

    fn expression(&mut self) -> Result<Expr, ScriptError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ScriptError> {
        self.nested(Self::assignment_body)
    }

    fn assignment_body(&mut self) -> Result<Expr, ScriptError> {
        let target = self.conditional()?;
        let op = match self.peek() {
            Tok::Assign => Some(AssignOp::Assign),
            Tok::PlusAssign => Some(AssignOp::Add),
            Tok::MinusAssign => Some(AssignOp::Sub),
            _ => None,
        };
        let Some(op) = op else { return Ok(target) };
        if !matches!(target, Expr::Ident(_) | Expr::Member { .. }) {
            return Err(self.error("invalid assignment target".to_string()));
        }
        self.advance();
        let value = self.assignment()?;
        Ok(Expr::Assign {
            target: Box::new(target),
            op,
            value: Box::new(value),
        })
    }

    fn conditional(&mut self) -> Result<Expr, ScriptError> {
        let cond = self.logical_or()?;
        if !self.eat(&Tok::Question) {
            return Ok(cond);
        }
        let then = self.assignment()?;
        self.expect(&Tok::Colon, "in conditional expression")?;
        let otherwise = self.assignment()?;
        Ok(Expr::Conditional {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        })
    }

    fn logical_or(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.logical_and()?;
        while self.eat(&Tok::OrOr) {
            let right = self.logical_and()?;
            left = Expr::Logical {
                op: LogicalOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn logical_and(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.equality()?;
        while self.eat(&Tok::AndAnd) {
            let right = self.equality()?;
            left = Expr::Logical {
                op: LogicalOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn equality(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.comparison()?;
        loop {
            let op = match self.peek() {
                Tok::EqEq => BinOp::Eq,
                Tok::NotEq => BinOp::NotEq,
                Tok::EqEqEq => BinOp::StrictEq,
                Tok::NotEqEq => BinOp::StrictNotEq,
                _ => break,
            };
            self.advance();
            let right = self.comparison()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn comparison(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.additive()?;
        loop {
            let op = match self.peek() {
                Tok::Lt => BinOp::Lt,
                Tok::Gt => BinOp::Gt,
                Tok::Le => BinOp::Le,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            self.advance();
            let right = self.additive()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr, ScriptError> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, ScriptError> {
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Plus => Some(UnOp::Plus),
            Tok::Not => Some(UnOp::Not),
            Tok::Typeof => Some(UnOp::Typeof),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let expr = self.nested(Self::unary)?;
            return Ok(Expr::Unary {
                op,
                expr: Box::new(expr),
            });
        }
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let op = if self.advance() == Tok::PlusPlus {
                UpdateOp::Increment
            } else {
                UpdateOp::Decrement
            };
            let target = self.nested(Self::unary)?;
            return Ok(Expr::Update {
                op,
                prefix: true,
                target: Box::new(target),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ScriptError> {
        let expr = self.call_member()?;
        match self.peek() {
            Tok::PlusPlus => {
                self.advance();
                Ok(Expr::Update {
                    op: UpdateOp::Increment,
                    prefix: false,
                    target: Box::new(expr),
                })
            }
            Tok::MinusMinus => {
                self.advance();
                Ok(Expr::Update {
                    op: UpdateOp::Decrement,
                    prefix: false,
                    target: Box::new(expr),
                })
            }
            _ => Ok(expr),
        }
    }

    fn call_member(&mut self) -> Result<Expr, ScriptError> {
        let mut expr = if self.eat(&Tok::New) {
            let callee = self.primary()?;
            let args = if self.check(&Tok::LParen) {
                self.arguments()?
            } else {
                Vec::new()
            };
            Expr::New {
                callee: Box::new(callee),
                args,
            }
        } else {
            self.primary()?
        };

        loop {
            match self.peek() {
                Tok::Dot => {
                    self.advance();
                    let name = self.ident("after `.`")?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        property: MemberKey::Static(name),
                    };
                }
                Tok::LBracket => {
                    self.advance();
                    let key = self.expression()?;
                    self.expect(&Tok::RBracket, "to close computed member access")?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        property: MemberKey::Computed(Box::new(key)),
                    };
                }
                Tok::LParen => {
                    let args = self.arguments()?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn arguments(&mut self) -> Result<Vec<Expr>, ScriptError> {
        self.expect(&Tok::LParen, "to open an argument list")?;
        let mut args = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                args.push(self.assignment()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "to close an argument list")?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, ScriptError> {
        match self.advance() {
            Tok::Number(n) => Ok(Expr::Number(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::Undefined => Ok(Expr::Undefined),
            Tok::Ident(name) => Ok(Expr::Ident(name)),
            Tok::LParen => {
                let expr = self.expression()?;
                self.expect(&Tok::RParen, "to close a parenthesized expression")?;
                Ok(expr)
            }
            Tok::LBracket => {
                let mut elements = Vec::new();
                if !self.check(&Tok::RBracket) {
                    loop {
                        elements.push(self.assignment()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "to close an array literal")?;
                Ok(Expr::Array(elements))
            }
            Tok::LBrace => {
                let mut properties = Vec::new();
                if !self.check(&Tok::RBrace) {
                    loop {
                        let key = match self.advance() {
                            Tok::Ident(name) => name,
                            Tok::Str(s) => s,
                            Tok::Number(n) => n.to_string(),
                            other => {
                                return Err(self.error(format!(
                                    "expected property name in object literal, found {other:?}"
                                )))
                            }
                        };
                        self.expect(&Tok::Colon, "after object-literal property name")?;
                        let value = self.assignment()?;
                        properties.push((key, value));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "to close an object literal")?;
                Ok(Expr::Object(properties))
            }
            Tok::Function => {
                let (params, body) = self.function_rest()?;
                Ok(Expr::Function { params, body })
            }
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// Peeks whether the upcoming tokens look like the start of an expression — kept
    /// for future use by interactive tooling.
    #[allow(dead_code)]
    fn at_expression_start(&self) -> bool {
        matches!(
            self.peek_ahead(0),
            Tok::Number(_)
                | Tok::Str(_)
                | Tok::Ident(_)
                | Tok::True
                | Tok::False
                | Tok::Null
                | Tok::Undefined
                | Tok::LParen
                | Tok::LBracket
                | Tok::LBrace
                | Tok::Function
                | Tok::New
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_variable_declarations_and_calls() {
        let program =
            parse_program("var el = document.getElementById('x'); el.setAttribute('a', 1);")
                .unwrap();
        assert_eq!(program.len(), 2);
        assert!(matches!(&program[0], Stmt::VarDecl { name, .. } if name == "el"));
        assert!(matches!(&program[1], Stmt::Expr(Expr::Call { .. })));
    }

    #[test]
    fn operator_precedence() {
        let program = parse_program("1 + 2 * 3;").unwrap();
        let Stmt::Expr(Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        }) = &program[0]
        else {
            panic!("expected addition at the top");
        };
        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            function f(n) {
                var total = 0;
                for (var i = 0; i < n; i++) {
                    if (i % 2 == 0) { total += i; } else { total -= 1; }
                }
                while (total > 100) { total = total / 2; }
                return total;
            }
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.len(), 1);
        let Stmt::FunctionDecl { name, params, body } = &program[0] else {
            panic!("expected a function declaration");
        };
        assert_eq!(name, "f");
        assert_eq!(params, &vec!["n".to_string()]);
        assert!(body.len() >= 4);
    }

    #[test]
    fn parses_member_chains_new_and_literals() {
        let src = "var xhr = new XMLHttpRequest(); xhr.open('POST', '/api'); var cfg = {a: 1, 'b': [1,2,3]}; cfg.a = cfg['b'][0];";
        let program = parse_program(src).unwrap();
        assert_eq!(program.len(), 4);
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::New { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_conditional_and_logical_operators() {
        let program = parse_program("var x = a && b || c ? 'yes' : 'no';").unwrap();
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::Conditional { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_function_expressions_and_typeof() {
        let program = parse_program("var cb = function(e) { return typeof e; }; cb(1);").unwrap();
        assert_eq!(program.len(), 2);
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::Function { .. }),
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse_program("var = 3;").is_err());
        assert!(parse_program("if (x { }").is_err());
        assert!(parse_program("function () {}").is_err());
        assert!(parse_program("1 +").is_err());
        assert!(parse_program("foo(1,").is_err());
        assert!(parse_program("3 = x;").is_err());
    }

    #[test]
    fn postfix_and_prefix_updates() {
        let program = parse_program("i++; ++j; k--;").unwrap();
        assert!(matches!(
            &program[0],
            Stmt::Expr(Expr::Update {
                prefix: false,
                op: UpdateOp::Increment,
                ..
            })
        ));
        assert!(matches!(
            &program[1],
            Stmt::Expr(Expr::Update {
                prefix: true,
                op: UpdateOp::Increment,
                ..
            })
        ));
        assert!(matches!(
            &program[2],
            Stmt::Expr(Expr::Update {
                prefix: false,
                op: UpdateOp::Decrement,
                ..
            })
        ));
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let too_deep = |source: &str| {
            matches!(
                parse_program(source),
                Err(ScriptError::NestingTooDeep {
                    limit: MAX_NESTING_DEPTH,
                    ..
                })
            )
        };
        assert!(too_deep(&format!("{}1{};", "(".repeat(n), ")".repeat(n))));
        assert!(too_deep(&"(".repeat(n)));
        assert!(too_deep(&format!("{}x;", "!".repeat(n))));
        assert!(too_deep(&format!("{}{}", "{".repeat(n), "}".repeat(n))));
        assert!(too_deep(&format!("{}x;", "x = ".repeat(n))));
        // Nesting well inside the bound still parses.
        let shallow = MAX_NESTING_DEPTH - 8;
        let source = format!("{}1{};", "(".repeat(shallow), ")".repeat(shallow));
        assert!(parse_program(&source).is_ok());
    }

    #[test]
    fn empty_statements_and_blocks() {
        let program = parse_program(";;{ var a = 1; };").unwrap();
        assert!(program.iter().any(|s| matches!(s, Stmt::Block(_))));
        assert!(program.iter().any(|s| matches!(s, Stmt::Empty)));
    }
}
