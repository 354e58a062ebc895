//! The assembler preprocessor.
//!
//! This is the machinery the ADVM abstraction layer rides on:
//!
//! * `.INCLUDE Globals.inc` — pulls the abstraction layer into a test,
//! * `NAME .EQU expr` — assembly-time constants, evaluated eagerly so that
//!   conditional assembly can branch on them,
//! * `.DEFINE NAME tokens` — textual aliases (the paper's
//!   `.DEFINE CallAddr A12`),
//! * `.MACRO` / `.ENDM` — parameterised code templates for base functions,
//! * `.IF expr` / `.IFDEF` / `.IFNDEF` / `.ELSE` / `.ENDIF` — the
//!   mechanism by which one test adapts to derivative and platform
//!   (`.IF WDT_DISABLE == 0` style control comes from globals values),
//! * `.ERROR "msg"` — guard rails inside the abstraction layer.
//!
//! Identifiers beginning with `LOCAL_` inside a macro body are made unique
//! per expansion, so macros can define labels safely.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use crate::diag::AsmError;
use crate::expr;
use crate::lexer::{tokenize, Token};
use crate::source::{Loc, SourceSet};

/// Maximum `.INCLUDE` nesting depth.
const MAX_INCLUDE_DEPTH: usize = 32;
/// Maximum macro expansion nesting depth.
const MAX_MACRO_DEPTH: usize = 64;
/// Maximum macro expansions in one unit: within the depth limit, a chain
/// of macros that each expand the next twice doubles its output per
/// level.
const MAX_MACRO_EXPANSIONS: u64 = 1 << 16;

/// One classified line of a tokenized source file (see [`tokenized`]).
enum CachedLine {
    /// Nothing but whitespace/comment.
    Empty,
    /// Text-level `.INCLUDE` line, kept raw: a bare path like
    /// `Globals.inc` would not survive tokenization.
    Include(String),
    /// Tokens, exactly as `tokenize` would produce them.
    Tokens(Vec<Token>),
    /// The line does not lex; kept raw to re-tokenize on demand for a
    /// located error.
    Bad(String),
}

/// A source file as the preprocessor reads it: one classified line per
/// source line.
struct TokenizedFile {
    lines: Vec<CachedLine>,
}

/// Upper bound on cached files; the map is cleared when it fills so a
/// pathological stream of unique sources cannot grow memory unboundedly.
const TOKEN_CACHE_CAP: usize = 512;

type TokenCache = HashMap<u64, Vec<(String, Arc<TokenizedFile>)>>;

fn token_cache() -> &'static Mutex<TokenCache> {
    static CACHE: OnceLock<Mutex<TokenCache>> = OnceLock::new();
    CACHE.get_or_init(Mutex::default)
}

/// Matches the text-level `.INCLUDE` detection in `Preprocessor::run`
/// (case-insensitive prefix of the trimmed line).
fn is_include_line(raw: &str) -> bool {
    raw.trim()
        .as_bytes()
        .get(..8)
        .is_some_and(|p| p.eq_ignore_ascii_case(b".INCLUDE"))
}

/// The file an `.INCLUDE` line names: the rest of the line, without a
/// trailing comment or quotes.
fn include_path(raw: &str) -> &str {
    let path = raw.trim()[".INCLUDE".len()..].trim();
    let path = path.split(';').next().unwrap_or("").trim();
    path.trim_matches('"').trim()
}

fn tokenize_file(text: &str) -> TokenizedFile {
    let probe = Loc::new("<cache>", 0);
    let lines = text
        .lines()
        .map(|raw| {
            if is_include_line(raw) {
                return CachedLine::Include(raw.to_owned());
            }
            match tokenize(raw, &probe) {
                Ok(t) if t.is_empty() => CachedLine::Empty,
                Ok(t) => CachedLine::Tokens(t),
                Err(_) => CachedLine::Bad(raw.to_owned()),
            }
        })
        .collect();
    TokenizedFile { lines }
}

/// Returns the tokenized form of `text`, caching by content so the files
/// shared across every campaign build unit (vector table, trap handlers,
/// base functions) are lexed once per process instead of once per unit.
fn tokenized(text: &str) -> Arc<TokenizedFile> {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut hasher);
    let key = hasher.finish();
    let mut cache = token_cache().lock().expect("token cache lock");
    if let Some(bucket) = cache.get(&key) {
        if let Some((_, file)) = bucket.iter().find(|(content, _)| content == text) {
            return Arc::clone(file);
        }
    }
    let file = Arc::new(tokenize_file(text));
    if cache.len() >= TOKEN_CACHE_CAP {
        cache.clear();
    }
    cache
        .entry(key)
        .or_default()
        .push((text.to_owned(), Arc::clone(&file)));
    file
}

/// One preprocessed logical line, ready for the assembler proper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicalLine {
    /// The line's tokens (aliases substituted, macros expanded).
    pub tokens: Vec<Token>,
    /// Where the line came from (macro-expanded lines keep the body's
    /// location).
    pub loc: Loc,
}

/// The preprocessor's result.
#[derive(Debug, Clone, Default)]
pub struct Preprocessed {
    /// Assembler-visible lines in order.
    pub lines: Vec<LogicalLine>,
    /// `.EQU` constants in definition order.
    pub equs: Vec<(String, i64)>,
    /// Files pulled in by `.INCLUDE`, in first-include order (the
    /// violation checker in the methodology crate inspects this).
    pub includes: Vec<String>,
}

impl Preprocessed {
    /// Looks up an `.EQU` constant.
    pub fn equ(&self, name: &str) -> Option<i64> {
        self.equs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

struct Macro {
    params: Vec<String>,
    body: Vec<(Vec<Token>, Loc)>,
}

#[derive(Clone)]
struct CondFrame {
    /// The `.IF`, `.IFDEF` or `.IFNDEF` line that opened the conditional.
    opened: Loc,
    /// Whether the current branch emits lines.
    active: bool,
    /// Whether any branch of this conditional has been taken.
    taken: bool,
    /// Whether `.ELSE` has been seen.
    seen_else: bool,
}

/// The definitions preprocessing collects: `.EQU` constants, `.DEFINE`
/// aliases and macros.
#[derive(Default)]
struct Symbols {
    equs: HashMap<String, i64>,
    aliases: HashMap<String, Vec<Token>>,
    macros: HashMap<String, Macro>,
}

/// A file on the include stack: its lines and the next one to read.
#[derive(Clone)]
struct OpenFile {
    name: Arc<str>,
    lines: Arc<TokenizedFile>,
    next: usize,
}

struct Preprocessor<'a> {
    sources: &'a SourceSet,
    out: Preprocessed,
    /// Definitions made before a [`Suspended`] unit was resumed: read,
    /// never written. This run's own definitions go into `own`, which is
    /// searched first, so a `.DEFINE` made after the suspension replaces
    /// an earlier one as it would in one run.
    base: &'a Symbols,
    own: Symbols,
    conds: Vec<CondFrame>,
    /// The include stack, innermost file last.
    files: Vec<OpenFile>,
    completed_includes: Vec<Arc<str>>,
    expansions: u64,
}

/// Runs the preprocessor over `entry` (and everything it includes).
///
/// # Errors
///
/// Returns the first error encountered: missing include, malformed
/// directive, unbalanced conditionals, duplicate `.EQU`, macro problems or
/// a triggered `.ERROR`.
pub fn preprocess(entry: &str, sources: &SourceSet) -> Result<Preprocessed, AsmError> {
    let none = Symbols::default();
    let mut pp = Preprocessor::new(sources, &none);
    pp.open(entry, None)?;
    pp.run(None)?;
    pp.finish(entry)?;
    Ok(pp.out)
}

/// A unit's preprocessing suspended at the first active `.INCLUDE` of one
/// file, the *stop* file, holding everything needed to go on from there:
/// the definitions made so far, the conditional stack, the include stack
/// with each open file's position, the include-once list and the
/// macro-expansion counter (so `LOCAL_` labels stay unique across the
/// suspension).
pub(crate) struct Suspended {
    entry: String,
    symbols: Symbols,
    conds: Vec<CondFrame>,
    files: Vec<OpenFile>,
    completed_includes: Vec<Arc<str>>,
    expansions: u64,
    /// The stop file and the `.INCLUDE` line naming it; `None` when the
    /// unit never includes it, so preprocessing ran to the end.
    stop: Option<(String, Loc)>,
}

impl Suspended {
    /// Preprocesses `entry` up to the first active `.INCLUDE stop`, and
    /// returns the suspended state with the lines and `.EQU`s so far.
    pub(crate) fn new(
        entry: &str,
        sources: &SourceSet,
        stop: &str,
    ) -> Result<(Self, Preprocessed), AsmError> {
        let none = Symbols::default();
        let mut pp = Preprocessor::new(sources, &none);
        pp.open(entry, None)?;
        let stop = pp.run(Some(stop))?.map(|loc| (stop.to_owned(), loc));
        let Preprocessor {
            out,
            own,
            conds,
            files,
            completed_includes,
            expansions,
            ..
        } = pp;
        let suspended = Self {
            entry: entry.to_owned(),
            symbols: own,
            conds,
            files,
            completed_includes,
            expansions,
            stop,
        };
        Ok((suspended, out))
    }

    /// Goes on from the suspension: includes the stop file from
    /// `sources` and preprocesses it and the rest of the unit. Returns
    /// the lines and `.EQU`s that follow the suspension point.
    ///
    /// `sources` must hold the same files as the set the suspension was
    /// made from, except the stop file and the files only it includes.
    pub(crate) fn resume(&self, sources: &SourceSet) -> Result<Preprocessed, AsmError> {
        let mut pp = Preprocessor::new(sources, &self.symbols);
        pp.conds.clone_from(&self.conds);
        pp.files.clone_from(&self.files);
        pp.completed_includes.clone_from(&self.completed_includes);
        pp.expansions = self.expansions;
        if let Some((stop, loc)) = &self.stop {
            pp.open(stop, Some(loc))?;
            pp.run(None)?;
        }
        pp.finish(&self.entry)?;
        Ok(pp.out)
    }
}

impl<'a> Preprocessor<'a> {
    fn new(sources: &'a SourceSet, base: &'a Symbols) -> Self {
        Self {
            sources,
            out: Preprocessed::default(),
            base,
            own: Symbols::default(),
            conds: Vec::new(),
            files: Vec::new(),
            completed_includes: Vec::new(),
            expansions: 0,
        }
    }

    fn active(&self) -> bool {
        self.conds.iter().all(|c| c.active)
    }

    fn equ(&self, name: &str) -> Option<i64> {
        self.own
            .equs
            .get(name)
            .or_else(|| self.base.equs.get(name))
            .copied()
    }

    fn alias(&self, name: &str) -> Option<&Vec<Token>> {
        self.own
            .aliases
            .get(name)
            .or_else(|| self.base.aliases.get(name))
    }

    fn macro_def(&self, name: &str) -> Option<&Macro> {
        self.own
            .macros
            .get(name)
            .or_else(|| self.base.macros.get(name))
    }

    /// Pushes `name` on the include stack. Include-once semantics: a file
    /// that was fully processed earlier is skipped, so `Globals.inc` can
    /// be included both by the unit prologue and by each test (as the
    /// paper's listings do).
    fn open(&mut self, name: &str, from: Option<&Loc>) -> Result<(), AsmError> {
        if self.completed_includes.iter().any(|f| &**f == name) {
            if from.is_some() && self.active() {
                self.out.includes.push(name.to_owned());
            }
            return Ok(());
        }
        if self.files.iter().any(|f| &*f.name == name) {
            let loc = from.cloned().unwrap_or_else(|| Loc::new(name, 0));
            return Err(AsmError::at(
                loc,
                format!("include cycle: `{name}` is already being processed"),
            ));
        }
        if self.files.len() >= MAX_INCLUDE_DEPTH {
            let loc = from.cloned().unwrap_or_else(|| Loc::new(name, 0));
            return Err(AsmError::at(loc, "include depth limit exceeded"));
        }
        let text = self.sources.get(name).ok_or_else(|| match from {
            Some(loc) => AsmError::at(loc.clone(), format!("include file `{name}` not found")),
            None => AsmError::general(format!("entry file `{name}` not found")),
        })?;
        // Track every include (even repeats) for environment analysis.
        if from.is_some() && self.active() {
            self.out.includes.push(name.to_owned());
        }
        self.files.push(OpenFile {
            name: Arc::from(name),
            lines: tokenized(text),
            next: 0,
        });
        Ok(())
    }

    /// Reads lines from the innermost open file, opening each active
    /// `.INCLUDE` and closing each file at its end, until the include
    /// stack is empty. An active `.INCLUDE` of `stop` is not opened: the
    /// run ends there and returns that line's location.
    fn run(&mut self, stop: Option<&str>) -> Result<Option<Loc>, AsmError> {
        while let Some(top) = self.files.last() {
            // One shared file-name allocation; per-line `Loc`s bump it.
            let file = Arc::clone(&top.name);
            let lines = Arc::clone(&top.lines);
            let lines = &lines.lines;
            let mut i = top.next;
            let mut include = None;
            while include.is_none() && i < lines.len() {
                let loc = Loc::new(file.clone(), (i + 1) as u32);
                let line = &lines[i];
                i += 1;

                let tokens = match line {
                    // `.INCLUDE path` is handled at text level.
                    CachedLine::Include(raw) => {
                        if self.active() {
                            let path = include_path(raw);
                            if path.is_empty() {
                                return Err(AsmError::at(loc, ".INCLUDE requires a file name"));
                            }
                            include = Some((path, loc));
                        }
                        continue;
                    }
                    CachedLine::Empty => continue,
                    // Inside an inactive conditional branch, unlexable lines
                    // are skipped: they may use another platform's syntax.
                    CachedLine::Bad(raw) => {
                        if self.active() {
                            return Err(
                                tokenize(raw, &loc).expect_err("line classified Bad fails to lex")
                            );
                        }
                        continue;
                    }
                    CachedLine::Tokens(t) => t.clone(),
                };

                if self.conditional(&tokens, &loc, 0)? || !self.active() {
                    continue;
                }

                // Macro definition.
                if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".MACRO") {
                    let (name, params) = parse_macro_header(&tokens[1..], &loc)?;
                    let mut body = Vec::new();
                    let mut closed = false;
                    while i < lines.len() {
                        let body_loc = Loc::new(file.clone(), (i + 1) as u32);
                        let body_tokens = match &lines[i] {
                            CachedLine::Empty => Vec::new(),
                            CachedLine::Tokens(t) => t.clone(),
                            // `.INCLUDE`-shaped and unlexable body lines go
                            // through the lexer as before (for the body
                            // tokens or the located error, respectively).
                            CachedLine::Include(raw) | CachedLine::Bad(raw) => {
                                tokenize(raw, &body_loc)?
                            }
                        };
                        i += 1;
                        if matches!(body_tokens.first(), Some(Token::Directive(d)) if d == ".ENDM")
                        {
                            closed = true;
                            break;
                        }
                        if matches!(body_tokens.first(), Some(Token::Directive(d)) if d == ".MACRO")
                        {
                            return Err(AsmError::at(
                                body_loc,
                                "nested .MACRO definitions are not supported",
                            ));
                        }
                        if !body_tokens.is_empty() {
                            body.push((body_tokens, body_loc));
                        }
                    }
                    if !closed {
                        return Err(AsmError::at(loc, format!("macro `{name}` has no .ENDM")));
                    }
                    if self.macro_def(&name).is_some() {
                        return Err(AsmError::at(loc, format!("macro `{name}` redefined")));
                    }
                    self.own.macros.insert(name, Macro { params, body });
                    continue;
                }

                self.process_line(tokens, loc, 0)?;
            }
            self.files
                .last_mut()
                .expect("the file being read is open")
                .next = i;
            match include {
                Some((path, loc)) if stop == Some(path) => return Ok(Some(loc)),
                Some((path, loc)) => self.open(path, Some(&loc))?,
                None => {
                    let done = self.files.pop().expect("the file being read is open");
                    self.completed_includes.push(done.name);
                }
            }
        }
        Ok(None)
    }

    /// Applies one line to the conditional stack if it is an `.IF`,
    /// `.IFDEF`, `.IFNDEF`, `.ELSE` or `.ENDIF`, and returns whether it
    /// was. Conditionals are tracked in inactive branches too, so nesting
    /// stays balanced. The frames below `floor` belong to the enclosing
    /// text (the file around a macro body), so an `.ELSE` or `.ENDIF`
    /// here cannot close them.
    fn conditional(&mut self, tokens: &[Token], loc: &Loc, floor: usize) -> Result<bool, AsmError> {
        let Some(Token::Directive(d)) = tokens.first() else {
            return Ok(false);
        };
        let unmatched = || AsmError::at(loc.clone(), format!("{d} without matching .IF"));
        match d.as_str() {
            ".IF" | ".IFDEF" | ".IFNDEF" => {
                let parent_active = self.active();
                let cond = parent_active && self.eval_condition(d, &tokens[1..], loc)?;
                self.conds.push(CondFrame {
                    opened: loc.clone(),
                    active: cond,
                    taken: cond,
                    seen_else: false,
                });
            }
            ".ELSE" => {
                if self.conds.len() <= floor {
                    return Err(unmatched());
                }
                let parent_active = self.conds.iter().rev().skip(1).all(|c| c.active);
                let frame = self.conds.last_mut().ok_or_else(unmatched)?;
                if frame.seen_else {
                    return Err(AsmError::at(loc.clone(), "duplicate .ELSE"));
                }
                frame.seen_else = true;
                frame.active = parent_active && !frame.taken;
                frame.taken = true;
            }
            ".ENDIF" => {
                if self.conds.len() <= floor {
                    return Err(unmatched());
                }
                self.conds.pop();
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Checks, at the end of the unit, that every conditional closed; an
    /// open one is reported at the line that opened the innermost.
    fn finish(&self, entry: &str) -> Result<(), AsmError> {
        match self.conds.last() {
            None => Ok(()),
            Some(frame) => Err(AsmError::at(
                frame.opened.clone(),
                format!("unterminated conditional at end of `{entry}` (missing .ENDIF)"),
            )),
        }
    }

    /// Handles one active logical line: alias substitution, `.EQU`,
    /// `.DEFINE`, `.ERROR`, macro expansion, or pass-through.
    fn process_line(&mut self, tokens: Vec<Token>, loc: Loc, depth: usize) -> Result<(), AsmError> {
        if depth > MAX_MACRO_DEPTH {
            return Err(AsmError::at(loc, "macro expansion depth limit exceeded"));
        }

        // `.DEFINE NAME tokens` — recorded before substitution so the name
        // itself is not rewritten.
        if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".DEFINE") {
            let name = match tokens.get(1) {
                Some(Token::Ident(n)) => n.clone(),
                _ => return Err(AsmError::at(loc, ".DEFINE requires a name")),
            };
            if tokens.len() < 3 {
                return Err(AsmError::at(
                    loc,
                    format!(".DEFINE {name} requires a replacement"),
                ));
            }
            if self.equ(&name).is_some() {
                return Err(AsmError::at(
                    loc,
                    format!("`{name}` is already defined as an .EQU constant"),
                ));
            }
            let replacement: Vec<Token> = tokens[2..].to_vec();
            self.own.aliases.insert(name, replacement);
            return Ok(());
        }

        // `NAME .EQU expr` — the name is taken from the *raw* tokens so a
        // `.DEFINE` alias cannot silently rewrite it; only the expression
        // side gets alias substitution.
        if tokens.len() >= 2 && matches!(&tokens[1], Token::Directive(d) if d == ".EQU") {
            let name = match &tokens[0] {
                Token::Ident(n) => n.clone(),
                other => {
                    return Err(AsmError::at(
                        loc,
                        format!(".EQU name expected, found `{other}`"),
                    ))
                }
            };
            let expr_tokens = self.substitute_aliases(tokens[2..].to_vec());
            // Generated abstraction layers are almost entirely
            // `NAME .EQU <number>` lines; skip expression parsing then.
            let value = match expr_tokens.as_slice() {
                [Token::Number(n)] => *n,
                _ => self.eval_expr(&expr_tokens, &loc)?,
            };
            if self.alias(&name).is_some() {
                return Err(AsmError::at(
                    loc,
                    format!("`{name}` is already defined as a .DEFINE alias"),
                ));
            }
            if let Some(old) = self.equ(&name) {
                return Err(AsmError::at(
                    loc,
                    format!("symbol `{name}` redefined by .EQU (was {old}, now {value})"),
                ));
            }
            self.own.equs.insert(name.clone(), value);
            self.out.equs.push((name, value));
            return Ok(());
        }

        let tokens = self.substitute_aliases(tokens);

        // `.ERROR "message"`.
        if matches!(tokens.first(), Some(Token::Directive(d)) if d == ".ERROR") {
            let message = match tokens.get(1) {
                Some(Token::Str(s)) => s.clone(),
                _ => "(no message)".to_owned(),
            };
            return Err(AsmError::at(loc, format!(".ERROR: {message}")));
        }

        // Macro invocation: `NAME args` or `label: NAME args`.
        let (label_prefix, rest) = split_label(&tokens);
        if let Some(Token::Ident(head)) = rest.first() {
            if self.macro_def(head).is_some() {
                if let Some(label) = label_prefix {
                    self.out.lines.push(LogicalLine {
                        tokens: vec![Token::Ident(label.to_owned()), Token::Punct(':')],
                        loc: loc.clone(),
                    });
                }
                let head = head.clone();
                let args = split_args(&rest[1..]);
                self.expand_macro(&head, args, &loc, depth)?;
                return Ok(());
            }
        }

        self.out.lines.push(LogicalLine { tokens, loc });
        Ok(())
    }

    fn expand_macro(
        &mut self,
        name: &str,
        args: Vec<Vec<Token>>,
        call_loc: &Loc,
        depth: usize,
    ) -> Result<(), AsmError> {
        self.expansions += 1;
        if self.expansions > MAX_MACRO_EXPANSIONS {
            return Err(AsmError::at(
                call_loc.clone(),
                format!("macro expansion limit exceeded ({MAX_MACRO_EXPANSIONS} expansions)"),
            ));
        }
        let uniq = self.expansions;
        let mac = self.macro_def(name).expect("only defined macros expand");
        if args.len() != mac.params.len() {
            return Err(AsmError::at(
                call_loc.clone(),
                format!(
                    "macro `{name}` expects {} argument(s), got {}",
                    mac.params.len(),
                    args.len()
                ),
            ));
        }
        let bindings: HashMap<&str, &Vec<Token>> = mac
            .params
            .iter()
            .map(String::as_str)
            .zip(args.iter())
            .collect();
        let body: Vec<(Vec<Token>, Loc)> = mac
            .body
            .iter()
            .map(|(tokens, loc)| {
                let mut out = Vec::with_capacity(tokens.len());
                for t in tokens {
                    match t {
                        Token::Ident(id) if bindings.contains_key(id.as_str()) => {
                            out.extend(bindings[id.as_str()].iter().cloned());
                        }
                        Token::Ident(id) if id.starts_with("LOCAL_") => {
                            out.push(Token::Ident(format!("{id}__{uniq}")));
                        }
                        other => out.push(other.clone()),
                    }
                }
                (out, loc.clone())
            })
            .collect();
        // The body's conditionals are evaluated per call, on the
        // substituted lines, and must close inside the body.
        let floor = self.conds.len();
        for (tokens, loc) in body {
            if self.conditional(&tokens, &loc, floor)? || !self.active() {
                continue;
            }
            self.process_line(tokens, loc, depth + 1)?;
        }
        match self.conds.get(floor..).and_then(<[CondFrame]>::last) {
            Some(open) => Err(AsmError::at(
                open.opened.clone(),
                format!("unterminated conditional in macro `{name}` (missing .ENDIF)"),
            )),
            None => Ok(()),
        }
    }

    fn substitute_aliases(&self, tokens: Vec<Token>) -> Vec<Token> {
        // Most lines reference no alias; skip the rebuild entirely then.
        if (self.own.aliases.is_empty() && self.base.aliases.is_empty())
            || !tokens
                .iter()
                .any(|t| matches!(t, Token::Ident(id) if self.alias(id).is_some()))
        {
            return tokens;
        }
        let mut out = Vec::with_capacity(tokens.len());
        for t in tokens {
            match &t {
                Token::Ident(id) => match self.alias(id) {
                    Some(replacement) => out.extend(replacement.iter().cloned()),
                    None => out.push(t),
                },
                _ => out.push(t),
            }
        }
        out
    }

    fn eval_expr(&self, tokens: &[Token], loc: &Loc) -> Result<i64, AsmError> {
        let expr = expr::parse_all(tokens, loc)?;
        expr::eval(&expr, loc, &|name| self.equ(name))
    }

    fn eval_condition(
        &self,
        directive: &str,
        tokens: &[Token],
        loc: &Loc,
    ) -> Result<bool, AsmError> {
        match directive {
            ".IFDEF" | ".IFNDEF" => {
                let name = match tokens.first() {
                    Some(Token::Ident(n)) => n,
                    _ => {
                        return Err(AsmError::at(
                            loc.clone(),
                            format!("{directive} requires a symbol name"),
                        ))
                    }
                };
                let defined = self.equ(name).is_some() || self.alias(name).is_some();
                Ok(if directive == ".IFDEF" {
                    defined
                } else {
                    !defined
                })
            }
            _ => Ok(self.eval_expr(tokens, loc)? != 0),
        }
    }
}

fn parse_macro_header(tokens: &[Token], loc: &Loc) -> Result<(String, Vec<String>), AsmError> {
    let name = match tokens.first() {
        Some(Token::Ident(n)) => n.clone(),
        _ => return Err(AsmError::at(loc.clone(), ".MACRO requires a name")),
    };
    let mut params = Vec::new();
    let mut rest = &tokens[1..];
    while !rest.is_empty() {
        match &rest[0] {
            Token::Ident(p) => params.push(p.clone()),
            other => {
                return Err(AsmError::at(
                    loc.clone(),
                    format!("macro parameter name expected, found `{other}`"),
                ))
            }
        }
        rest = &rest[1..];
        if let Some(first) = rest.first() {
            if first.is_punct(',') {
                rest = &rest[1..];
                continue;
            }
            return Err(AsmError::at(
                loc.clone(),
                "expected `,` between macro parameters",
            ));
        }
    }
    Ok((name, params))
}

/// Splits `label: rest` off a token line, if present.
fn split_label(tokens: &[Token]) -> (Option<&str>, &[Token]) {
    if tokens.len() >= 2 {
        if let (Token::Ident(name), true) = (&tokens[0], tokens[1].is_punct(':')) {
            return (Some(name), &tokens[2..]);
        }
    }
    (None, tokens)
}

/// Splits macro arguments at top-level commas (bracket/paren aware).
fn split_args(tokens: &[Token]) -> Vec<Vec<Token>> {
    if tokens.is_empty() {
        return Vec::new();
    }
    let mut args = Vec::new();
    let mut current = Vec::new();
    let mut depth = 0i32;
    for t in tokens {
        match t {
            Token::Punct('[') | Token::Punct('(') => {
                depth += 1;
                current.push(t.clone());
            }
            Token::Punct(']') | Token::Punct(')') => {
                depth -= 1;
                current.push(t.clone());
            }
            Token::Punct(',') if depth == 0 => {
                args.push(std::mem::take(&mut current));
            }
            _ => current.push(t.clone()),
        }
    }
    args.push(current);
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(entry: &str, files: &[(&str, &str)]) -> Result<Preprocessed, AsmError> {
        let sources: SourceSet = files.iter().copied().collect();
        preprocess(entry, &sources)
    }

    fn line_texts(pre: &Preprocessed) -> Vec<String> {
        pre.lines
            .iter()
            .map(|l| {
                l.tokens
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn include_pulls_globals() {
        let pre = run(
            "test.asm",
            &[
                (
                    "test.asm",
                    ".INCLUDE Globals.inc\nTEST_PAGE .EQU TEST1_TARGET_PAGE\n",
                ),
                ("Globals.inc", "TEST1_TARGET_PAGE .EQU 8\n"),
            ],
        )
        .unwrap();
        assert_eq!(pre.equ("TEST_PAGE"), Some(8));
        assert_eq!(pre.includes, vec!["Globals.inc".to_owned()]);
    }

    #[test]
    fn quoted_include_paths_work() {
        let pre = run(
            "t.asm",
            &[("t.asm", ".INCLUDE \"g.inc\"\n"), ("g.inc", "A .EQU 1\n")],
        )
        .unwrap();
        assert_eq!(pre.equ("A"), Some(1));
    }

    #[test]
    fn missing_include_is_located() {
        let err = run("t.asm", &[("t.asm", "\n.INCLUDE nope.inc\n")]).unwrap_err();
        assert_eq!(err.loc().unwrap().line, 2);
        assert!(err.to_string().contains("nope.inc"));
    }

    #[test]
    fn include_cycle_detected() {
        let err = run(
            "a.inc",
            &[("a.inc", ".INCLUDE b.inc\n"), ("b.inc", ".INCLUDE a.inc\n")],
        )
        .unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn repeated_include_is_skipped() {
        // Include-once: both the unit prologue and the test include
        // Globals.inc; the second include must not redefine the EQUs.
        let pre = run(
            "unit.asm",
            &[
                ("unit.asm", ".INCLUDE g.inc\n.INCLUDE test.asm\n"),
                ("test.asm", ".INCLUDE g.inc\nNOP\n"),
                ("g.inc", "A .EQU 1\n"),
            ],
        )
        .unwrap();
        assert_eq!(pre.equ("A"), Some(1));
        assert_eq!(line_texts(&pre), vec!["NOP"]);
        // Both include events are still recorded for environment analysis.
        assert_eq!(
            pre.includes,
            vec![
                "g.inc".to_owned(),
                "test.asm".to_owned(),
                "g.inc".to_owned()
            ]
        );
    }

    #[test]
    fn equ_chain_evaluates_eagerly() {
        let pre = run(
            "t.asm",
            &[("t.asm", "A .EQU 4\nB .EQU A * 2\nMASK .EQU 1 << B\n")],
        )
        .unwrap();
        assert_eq!(pre.equ("MASK"), Some(256));
    }

    #[test]
    fn equ_redefinition_rejected() {
        let err = run("t.asm", &[("t.asm", "A .EQU 1\nA .EQU 2\n")]).unwrap_err();
        assert!(err.to_string().contains("redefined"));
    }

    #[test]
    fn define_alias_substitutes() {
        // The paper's `.DEFINE CallAddr A12` idiom.
        let pre = run(
            "t.asm",
            &[("t.asm", ".DEFINE CallAddr a12\nLOAD CallAddr, TARGET\n")],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD a12 , TARGET"]);
    }

    #[test]
    fn define_and_equ_namespaces_collide_loudly() {
        assert!(run("t.asm", &[("t.asm", "A .EQU 1\n.DEFINE A d0\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".DEFINE A d0\nA .EQU 1\n")]).is_err());
    }

    #[test]
    fn conditional_if_else() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "FLAG .EQU 1\n.IF FLAG\nNOP\n.ELSE\nHALT #1\n.ENDIF\n",
            )],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["NOP"]);
    }

    #[test]
    fn conditional_else_branch() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "FLAG .EQU 0\n.IF FLAG\nNOP\n.ELSE\nHALT #1\n.ENDIF\n",
            )],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["HALT # 1"]);
    }

    #[test]
    fn nested_conditionals() {
        let src = "\
A .EQU 1
B .EQU 0
.IF A
.IF B
NOP
.ELSE
HALT #2
.ENDIF
.ELSE
NOP
NOP
.ENDIF
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["HALT # 2"]);
    }

    #[test]
    fn ifdef_checks_definition() {
        let pre = run(
            "t.asm",
            &[(
                "t.asm",
                "A .EQU 0\n.IFDEF A\nNOP\n.ENDIF\n.IFNDEF B\nHALT #0\n.ENDIF\n",
            )],
        )
        .unwrap();
        // `.IFDEF A` is true even though A == 0.
        assert_eq!(line_texts(&pre), vec!["NOP", "HALT # 0"]);
    }

    #[test]
    fn unbalanced_conditional_rejected() {
        assert!(run("t.asm", &[("t.asm", ".IF 1\nNOP\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".ENDIF\n")]).is_err());
        assert!(run("t.asm", &[("t.asm", ".ELSE\n")]).is_err());
        // An open conditional is reported where the innermost one
        // opened, in whichever file that is.
        let err = run(
            "t.asm",
            &[
                ("t.asm", ".IF 1\n.INCLUDE g.inc\n"),
                ("g.inc", "NOP\n.IFDEF X\n"),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "g.inc:2: unterminated conditional at end of `t.asm` (missing .ENDIF)"
        );
    }

    #[test]
    fn inactive_branch_tolerates_unlexable_lines() {
        let pre = run(
            "t.asm",
            &[("t.asm", ".IF 0\n@@@ not ours @@@\n.ENDIF\nNOP\n")],
        )
        .unwrap();
        assert_eq!(line_texts(&pre), vec!["NOP"]);
    }

    #[test]
    fn macro_expansion_with_args() {
        let src = "\
.MACRO WRITE_REG addr, value
LOAD d15, value
STORE [addr], d15
.ENDM
WRITE_REG 0x100, #7
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(
            line_texts(&pre),
            vec!["LOAD d15 , # 7", "STORE [ 256 ] , d15"]
        );
    }

    #[test]
    fn macro_local_labels_are_unique() {
        let src = "\
.MACRO SPIN n
LOCAL_loop:
ADDI d0, d0, #-1
JNE LOCAL_loop
.ENDM
SPIN 1
SPIN 2
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        let texts = line_texts(&pre);
        let labels: Vec<&String> = texts.iter().filter(|t| t.contains(':')).collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1], "expansions must not share labels");
    }

    #[test]
    fn doubling_macro_chains_hit_the_expansion_limit() {
        // M0 expands M1 twice, M1 expands M2 twice, ...: 2^40 lines from
        // a 40-deep chain, well within the depth limit.
        let mut chain = ".MACRO M40\nNOP\n.ENDM\n".to_owned();
        for level in (0..40).rev() {
            let next = level + 1;
            chain.push_str(&format!(".MACRO M{level}\nM{next}\nM{next}\n.ENDM\n"));
        }
        let err = run("t.asm", &[("t.asm", &format!("{chain}M0\n"))]).unwrap_err();
        assert!(err.to_string().contains("expansion limit"), "{err}");
        // A call that stays under the limit expands in full.
        let pre = run("t.asm", &[("t.asm", &format!("{chain}M30\n"))]).unwrap();
        assert_eq!(pre.lines.len(), 1 << 10);
    }

    #[test]
    fn macro_argument_count_checked() {
        let src = ".MACRO M a, b\nNOP\n.ENDM\nM 1\n";
        let err = run("t.asm", &[("t.asm", src)]).unwrap_err();
        assert!(err.to_string().contains("expects 2 argument(s), got 1"));
    }

    #[test]
    fn macro_invocation_after_label() {
        let src = ".MACRO M\nNOP\n.ENDM\nstart: M\n";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["start :", "NOP"]);
    }

    #[test]
    fn nested_macro_invocation() {
        let src = "\
.MACRO INNER x
LOAD d0, x
.ENDM
.MACRO OUTER y
INNER y
.ENDM
OUTER #3
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD d0 , # 3"]);
    }

    #[test]
    fn error_directive_fires() {
        let err = run(
            "t.asm",
            &[(
                "t.asm",
                ".IF 1\n.ERROR \"unsupported derivative\"\n.ENDIF\n",
            )],
        )
        .unwrap_err();
        assert!(err.to_string().contains("unsupported derivative"));
    }

    #[test]
    fn error_directive_skipped_when_inactive() {
        assert!(run(
            "t.asm",
            &[("t.asm", ".IF 0\n.ERROR \"nope\"\n.ENDIF\nNOP\n")]
        )
        .is_ok());
    }

    #[test]
    fn macro_args_with_brackets() {
        let src = "\
.MACRO LDW rd, mem
LOAD rd, mem
.ENDM
LDW d1, [a2 + 4]
";
        let pre = run("t.asm", &[("t.asm", src)]).unwrap();
        assert_eq!(line_texts(&pre), vec!["LOAD d1 , [ a2 + 4 ]"]);
    }
}
